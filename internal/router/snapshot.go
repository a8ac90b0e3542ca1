package router

import (
	"fmt"

	"repro/internal/sim"
)

// This file is the router package's checkpoint surface: plain-data State
// structs for packets, buffers, input VCs, outputs, routers, and channels,
// plus Export/Restore methods that move the mutable simulation state in and
// out of freshly constructed topology. Closures, configuration, and wiring
// (upstream sinks, schedulers, routing functions) are never serialized — a
// restore target is a newly built network with identical configuration, and
// only the dynamic fields below are overwritten.
//
// Packets travel by reference through buffers, rings, and wormhole state, so
// the checkpoint flattens every *Packet into an ID and rebuilds the aliasing
// on restore: export calls a PacketCollector for each live packet it meets
// (the network dedups them into one table), and restore maps IDs back to
// freshly allocated structs through a PacketResolver.

// PacketCollector registers one live packet into the checkpoint's packet
// table. Called once per reference; callees dedup by ID.
type PacketCollector func(p *Packet)

// PacketResolver returns the restored *Packet for an ID recorded at export
// time. IDs unknown to the table are an error (a corrupt or inconsistent
// snapshot).
type PacketResolver func(id int64) (*Packet, error)

// PacketState is the serializable form of one Packet (pool linkage dropped).
type PacketState struct {
	ID         int64
	Src        int
	Dst        int
	DstRouter  int
	DstLocal   int
	Len        int
	CreatedAt  sim.Cycle
	Misroutes  int
	Killed     bool
	KillRouter int
}

// ExportPacket flattens p.
func ExportPacket(p *Packet) PacketState {
	return PacketState{
		ID:         p.ID,
		Src:        p.Src,
		Dst:        p.Dst,
		DstRouter:  p.DstRouter,
		DstLocal:   p.DstLocal,
		Len:        p.Len,
		CreatedAt:  p.CreatedAt,
		Misroutes:  p.Misroutes,
		Killed:     p.Killed,
		KillRouter: p.KillRouter,
	}
}

// ApplyTo writes the snapshot into a freshly allocated packet.
func (st PacketState) ApplyTo(p *Packet) {
	p.ID = st.ID
	p.Src = st.Src
	p.Dst = st.Dst
	p.DstRouter = st.DstRouter
	p.DstLocal = st.DstLocal
	p.Len = st.Len
	p.CreatedAt = st.CreatedAt
	p.Misroutes = st.Misroutes
	p.Killed = st.Killed
	p.KillRouter = st.KillRouter
}

// FlitDesc is a FlitRef with the packet pointer flattened to its ID.
// PktID 0 means the reference was nil (or deliberately severed — see
// TxFlitState).
type FlitDesc struct {
	PktID   int64
	Seq     int32
	VC      int8
	ReadyAt sim.Cycle
}

func exportFlit(f FlitRef, collect PacketCollector) FlitDesc {
	d := FlitDesc{Seq: f.Seq, VC: f.VC, ReadyAt: f.ReadyAt}
	if f.Pkt != nil {
		collect(f.Pkt)
		d.PktID = f.Pkt.ID
	}
	return d
}

func resolveFlit(d FlitDesc, resolve PacketResolver) (FlitRef, error) {
	f := FlitRef{Seq: d.Seq, VC: d.VC, ReadyAt: d.ReadyAt}
	if d.PktID != 0 {
		p, err := resolve(d.PktID)
		if err != nil {
			return FlitRef{}, err
		}
		f.Pkt = p
	}
	return f, nil
}

// TxFlitState is one wire transmission (txFlit) flattened. Flit.PktID is 0
// for retransmit-ring entries already delivered downstream (Seq < rxExpect):
// their *Packet may have been recycled, they are only ever replayed and
// dropped as duplicates by sequence number, and the protocol never
// dereferences them — so the checkpoint severs the pointer rather than
// resurrect a dead packet. PktID (the header copy) is kept for the CRC.
type TxFlitState struct {
	Flit  FlitDesc
	Seq   uint64
	PktID int64
	CRC   uint16
}

func (c *Channel) exportTxFlit(tf txFlit, collect PacketCollector) TxFlitState {
	st := TxFlitState{Seq: tf.seq, PktID: tf.pktID, CRC: tf.crc}
	live := true
	if c.rel != nil && tf.seq < c.rel.rxExpect {
		live = false
	}
	if live {
		st.Flit = exportFlit(tf.f, collect)
	} else {
		st.Flit = FlitDesc{Seq: tf.f.Seq, VC: tf.f.VC, ReadyAt: tf.f.ReadyAt}
	}
	return st
}

func resolveTxFlit(st TxFlitState, resolve PacketResolver) (txFlit, error) {
	f, err := resolveFlit(st.Flit, resolve)
	if err != nil {
		return txFlit{}, err
	}
	return txFlit{f: f, seq: st.Seq, pktID: st.PktID, crc: st.CRC}, nil
}

// BufferState is one input-VC buffer: its queued flits in FIFO order plus
// the raw occupancy integral. The integral is exported without a sync to
// the checkpoint cycle — floating-point accrual is segmentation-sensitive,
// and forcing a boundary here would perturb every later Bu reading.
type BufferState struct {
	Flits  []FlitDesc
	OccInt float64
	LastT  sim.Cycle
}

// ExportState captures the buffer verbatim.
func (b *Buffer) ExportState(collect PacketCollector) BufferState {
	st := BufferState{OccInt: b.occInt, LastT: b.lastT}
	st.Flits = make([]FlitDesc, 0, b.count)
	for i := 0; i < b.count; i++ {
		st.Flits = append(st.Flits, exportFlit(b.slots[(b.head+i)%len(b.slots)], collect))
	}
	return st
}

// RestoreState overwrites the buffer from a snapshot.
func (b *Buffer) RestoreState(st BufferState, resolve PacketResolver) error {
	if len(st.Flits) > len(b.slots) {
		return fmt.Errorf("router: snapshot buffer holds %d flits, capacity is %d", len(st.Flits), len(b.slots))
	}
	for i := range b.slots {
		b.slots[i] = FlitRef{}
	}
	b.head = 0
	b.count = len(st.Flits)
	for i, d := range st.Flits {
		f, err := resolveFlit(d, resolve)
		if err != nil {
			return err
		}
		b.slots[i] = f
	}
	b.occInt = st.OccInt
	b.lastT = st.LastT
	return nil
}

// InputVCState is one input VC's wormhole and arbitration state.
type InputVCState struct {
	Buf        BufferState
	Route      int
	OutVC      int
	VCMask     uint32
	CurPktID   int64 // 0 = no wormhole in progress
	InReq      bool
	ProgressAt sim.Cycle
}

// OutVCState is one output VC's credit and ownership state.
type OutVCState struct {
	Credits int
	Owner   int
}

// OutputState is one output port's arbitration state. Req preserves the
// request-list order (grant fairness is order-dependent), RR the round-robin
// cursor, and Active whether the port sat on its shard's work list at the
// checkpoint barrier.
type OutputState struct {
	OVC          []OutVCState
	Req          []int
	RR           int
	Active       bool
	WakePending  bool
	Grants       int64
	CreditStalls int64
}

// RouterState is one router's complete mutable state.
type RouterState struct {
	Ins            []InputVCState
	Outs           []OutputState
	InputBusy      []sim.Cycle
	FlitsRouted    int64
	FlitsDiscarded int64
	EscGrants      int64
}

// ExportState captures the router's mutable state, registering every live
// packet it references with collect.
func (r *Router) ExportState(collect PacketCollector) RouterState {
	st := RouterState{
		Ins:            make([]InputVCState, len(r.ins)),
		Outs:           make([]OutputState, len(r.outs)),
		InputBusy:      make([]sim.Cycle, len(r.inputBusy)),
		FlitsRouted:    r.flitsRouted,
		FlitsDiscarded: r.flitsDiscarded,
		EscGrants:      r.escGrants,
	}
	copy(st.InputBusy, r.inputBusy)
	for i := range r.ins {
		in := &r.ins[i]
		is := &st.Ins[i]
		is.Buf = in.buf.ExportState(collect)
		is.Route = in.route
		is.OutVC = in.outVC
		is.VCMask = in.vcMask
		if in.curPkt != nil {
			collect(in.curPkt)
			is.CurPktID = in.curPkt.ID
		}
		is.InReq = in.inReq
		is.ProgressAt = in.progressAt
	}
	for p := range r.outs {
		o := &r.outs[p]
		os := &st.Outs[p]
		os.OVC = make([]OutVCState, len(o.ovc))
		for v := range o.ovc {
			os.OVC[v] = OutVCState{Credits: o.ovc[v].credits, Owner: o.ovc[v].owner}
		}
		os.Req = append([]int(nil), o.req...)
		os.RR = o.rr
		os.Active = o.active
		os.WakePending = o.wakePending
		os.Grants = o.grants
		os.CreditStalls = o.creditStalls
	}
	return st
}

// RestoreState overwrites the router's mutable state from a snapshot. The
// router must have been built with the same configuration (ports, VCs,
// buffer depth).
func (r *Router) RestoreState(st RouterState, resolve PacketResolver) error {
	if len(st.Ins) != len(r.ins) || len(st.Outs) != len(r.outs) || len(st.InputBusy) != len(r.inputBusy) {
		return fmt.Errorf("router %d: snapshot shape %d/%d/%d, router has %d/%d/%d",
			r.id, len(st.Ins), len(st.Outs), len(st.InputBusy), len(r.ins), len(r.outs), len(r.inputBusy))
	}
	for i := range st.Ins {
		in := &r.ins[i]
		is := &st.Ins[i]
		if err := in.buf.RestoreState(is.Buf, resolve); err != nil {
			return fmt.Errorf("router %d input VC %d: %w", r.id, i, err)
		}
		if is.Route < -1 || is.Route >= r.ports || is.OutVC < -1 || is.OutVC >= r.vcs {
			return fmt.Errorf("router %d input VC %d: snapshot route %d/outVC %d out of range", r.id, i, is.Route, is.OutVC)
		}
		in.route = is.Route
		in.outVC = is.OutVC
		in.vcMask = is.VCMask
		in.curPkt = nil
		if is.CurPktID != 0 {
			p, err := resolve(is.CurPktID)
			if err != nil {
				return fmt.Errorf("router %d input VC %d: %w", r.id, i, err)
			}
			in.curPkt = p
		}
		in.inReq = is.InReq
		in.progressAt = is.ProgressAt
	}
	for p := range st.Outs {
		o := &r.outs[p]
		os := &st.Outs[p]
		if len(os.OVC) != len(o.ovc) {
			return fmt.Errorf("router %d output %d: snapshot has %d VCs, output has %d", r.id, p, len(os.OVC), len(o.ovc))
		}
		for v := range os.OVC {
			if os.OVC[v].Credits < 0 || os.OVC[v].Credits > r.depth {
				return fmt.Errorf("router %d output %d VC %d: snapshot credits %d outside [0,%d]", r.id, p, v, os.OVC[v].Credits, r.depth)
			}
			o.ovc[v] = outVC{credits: os.OVC[v].Credits, owner: os.OVC[v].Owner}
		}
		o.req = o.req[:0]
		for _, ivc := range os.Req {
			if ivc < 0 || ivc >= len(r.ins) {
				return fmt.Errorf("router %d output %d: snapshot request %d out of range", r.id, p, ivc)
			}
			o.req = append(o.req, ivc)
		}
		o.rr = os.RR
		o.active = os.Active
		o.wakePending = os.WakePending
		o.grants = os.Grants
		o.creditStalls = os.CreditStalls
	}
	copy(r.inputBusy, st.InputBusy)
	r.flitsRouted = st.FlitsRouted
	r.flitsDiscarded = st.FlitsDiscarded
	r.escGrants = st.EscGrants
	return nil
}

// RelChannelState is the retransmission-protocol half of a ChannelState.
// Retx holds only the replayable window [AckSeq, SendSeq) — older ring
// slots are dead and restore as zero values.
type RelChannelState struct {
	Retx         []TxFlitState
	SendSeq      uint64
	AckSeq       uint64
	ReplayNext   uint64
	Retries      int
	DownUntil    sim.Cycle
	LastProgress sim.Cycle
	WdArmed      bool
	PumpArmed    bool
	RxExpect     uint64
	WantReplay   bool
	FbArmed      bool
	Rx           []FlitDesc
	Stats        RelStats
}

// ChannelState is one channel's complete mutable state.
type ChannelState struct {
	BusyUntilMC int64
	BusyCycles  float64
	Flits       int64
	Pending     []TxFlitState
	Rel         *RelChannelState
}

// ExportState captures the channel's mutable state. The in-flight rings are
// drained and refilled (SPSC rings have no iterator), which preserves their
// contents and order exactly; export must therefore run with the simulation
// quiesced, like every other checkpoint operation.
func (c *Channel) ExportState(collect PacketCollector) ChannelState {
	st := ChannelState{
		BusyUntilMC: c.busyUntilMC,
		BusyCycles:  c.busyCycles,
		Flits:       c.flits,
	}
	for n := c.pending.Len(); n > 0; n-- {
		tf := c.pending.Pop()
		st.Pending = append(st.Pending, c.exportTxFlit(tf, collect))
		c.pending.Push(tf)
	}
	if r := c.rel; r != nil {
		rs := &RelChannelState{
			SendSeq:      r.sendSeq,
			AckSeq:       r.ackSeq,
			ReplayNext:   r.replayNext,
			Retries:      r.retries,
			DownUntil:    r.downUntil,
			LastProgress: r.lastProgress,
			WdArmed:      r.wdArmed,
			PumpArmed:    r.pumpArmed,
			RxExpect:     r.rxExpect,
			WantReplay:   r.wantReplay,
			FbArmed:      r.fbArmed,
			Stats:        r.stats,
		}
		for seq := r.ackSeq; seq < r.sendSeq; seq++ {
			rs.Retx = append(rs.Retx, c.exportTxFlit(r.retx[seq%uint64(r.cfg.Window)], collect))
		}
		for n := r.rx.Len(); n > 0; n-- {
			f := r.rx.Pop()
			rs.Rx = append(rs.Rx, exportFlit(f, collect))
			r.rx.Push(f)
		}
		st.Rel = rs
	}
	return st
}

// RestoreState overwrites the channel's mutable state from a snapshot. The
// channel must have been built with the same reliability configuration.
func (c *Channel) RestoreState(st ChannelState, resolve PacketResolver) error {
	if (st.Rel != nil) != (c.rel != nil) {
		return fmt.Errorf("router: snapshot reliability %v, channel reliability %v", st.Rel != nil, c.rel != nil)
	}
	c.busyUntilMC = st.BusyUntilMC
	c.busyCycles = st.BusyCycles
	c.flits = st.Flits
	for c.pending.Len() > 0 {
		c.pending.Pop()
	}
	for _, ts := range st.Pending {
		tf, err := resolveTxFlit(ts, resolve)
		if err != nil {
			return err
		}
		c.pending.Push(tf)
	}
	if r := c.rel; r != nil {
		rs := st.Rel
		w := uint64(r.cfg.Window)
		if rs.SendSeq < rs.AckSeq || rs.SendSeq-rs.AckSeq > w {
			return fmt.Errorf("router: snapshot window [%d,%d) exceeds configured window %d", rs.AckSeq, rs.SendSeq, w)
		}
		if uint64(len(rs.Retx)) != rs.SendSeq-rs.AckSeq {
			return fmt.Errorf("router: snapshot retx has %d entries for window [%d,%d)", len(rs.Retx), rs.AckSeq, rs.SendSeq)
		}
		for i := range r.retx {
			r.retx[i] = txFlit{}
		}
		for i, ts := range rs.Retx {
			want := rs.AckSeq + uint64(i)
			if ts.Seq != want {
				return fmt.Errorf("router: snapshot retx entry %d has seq %d, want %d", i, ts.Seq, want)
			}
			tf, err := resolveTxFlit(ts, resolve)
			if err != nil {
				return err
			}
			r.retx[ts.Seq%w] = tf
		}
		r.sendSeq = rs.SendSeq
		r.ackSeq = rs.AckSeq
		r.replayNext = rs.ReplayNext
		r.retries = rs.Retries
		r.downUntil = rs.DownUntil
		r.lastProgress = rs.LastProgress
		r.wdArmed = rs.WdArmed
		r.pumpArmed = rs.PumpArmed
		r.rxExpect = rs.RxExpect
		r.wantReplay = rs.WantReplay
		r.fbArmed = rs.FbArmed
		for r.rx.Len() > 0 {
			r.rx.Pop()
		}
		for _, d := range rs.Rx {
			f, err := resolveFlit(d, resolve)
			if err != nil {
				return err
			}
			r.rx.Push(f)
		}
		r.stats = rs.Stats
	}
	return nil
}
