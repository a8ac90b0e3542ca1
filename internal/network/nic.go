package network

import (
	"repro/internal/router"
	"repro/internal/sim"
)

// pktDesc is a queued injection awaiting transmission by a NIC.
type pktDesc struct {
	created sim.Cycle
	dst     int32
	size    int32
}

// descQueue is a growable ring buffer of packet descriptors; the NIC's
// source queue. It is unbounded — source queueing delay is part of the
// paper's latency metric ("from the creation of the first flit of the
// packet till the ejection of its last flit").
type descQueue struct {
	buf  []pktDesc
	head int
	n    int
}

func (q *descQueue) push(d pktDesc) {
	if q.n == len(q.buf) {
		grown := make([]pktDesc, maxInt(16, 2*len(q.buf)))
		for i := 0; i < q.n; i++ {
			grown[i] = q.buf[(q.head+i)%len(q.buf)]
		}
		q.buf = grown
		q.head = 0
	}
	q.buf[(q.head+q.n)%len(q.buf)] = d
	q.n++
}

func (q *descQueue) pop() pktDesc {
	d := q.buf[q.head]
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	return d
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// NIC is a processing node's network interface: it segments queued packets
// into flits and streams them over the node's injection link into the
// router's local input port, respecting credit flow control.
type NIC struct {
	net  *Network
	sh   *shard // owning shard; all NIC state is stepped by it
	node int
	ch   *router.Channel

	// selfKey orders the NIC's wake-up events; pktSeq numbers the packets
	// this NIC creates (IDs are per-source, so shards never contend).
	selfKey uint64
	pktSeq  int64

	credits []int // per router-input VC
	q       descQueue
	cur     *router.Packet
	curSeq  int32
	curVC   int

	// minVC is the lowest VC injection may claim: with recovery enabled
	// the escape VCs below it are reserved for in-network fallback
	// traffic, so fresh packets enter the network adaptive.
	minVC int

	active      bool
	wakePending bool
	wakeEvt     sim.Event
}

func newNIC(net *Network, sh *shard, node int, ch *router.Channel, vcs, bufDepth int) *NIC {
	nc := &NIC{net: net, sh: sh, node: node, ch: ch, credits: make([]int, vcs)}
	actor := net.nicActor(node)
	nc.selfKey = sim.ActorKey(actor, actor)
	for v := range nc.credits {
		nc.credits[v] = bufDepth
	}
	nc.wakeEvt = func(now sim.Cycle) {
		nc.wakePending = false
		if nc.cur != nil || nc.q.n > 0 {
			nc.sh.activateNIC(nc)
		}
	}
	return nc
}

func (nc *NIC) enqueue(d pktDesc) { nc.q.push(d) }

// ReturnCredit implements router.CreditSink: the router freed one slot of
// the injection port's VC buffer.
func (nc *NIC) ReturnCredit(now sim.Cycle, vc int) {
	nc.credits[vc]++
	if nc.cur != nil || nc.q.n > 0 {
		nc.sh.activateNIC(nc)
	}
}

// tryInject attempts to start serialising one flit at cycle now. It
// returns whether the NIC should stay on the active list.
func (nc *NIC) tryInject(now sim.Cycle) bool {
	for nc.cur == nil {
		if nc.q.n == 0 {
			nc.active = false
			return false
		}
		d := nc.q.pop()
		// With recovery enabled, a destination the live-link graph cannot
		// reach is dropped here and counted rather than wedging the NIC.
		if rec := nc.net.rec; rec != nil &&
			!rec.reachable(nc.net.cfg.nodeRouter(nc.node), nc.net.cfg.nodeRouter(int(d.dst))) {
			nc.sh.unreachableDrops++
			continue
		}
		p := nc.sh.pool.Get()
		nc.pktSeq++
		p.ID = int64(nc.node)<<32 | nc.pktSeq
		p.Src = nc.node
		p.Dst = int(d.dst)
		p.DstRouter = nc.net.cfg.nodeRouter(int(d.dst))
		p.DstLocal = nc.net.cfg.nodeLocal(int(d.dst))
		p.Len = int(d.size)
		p.CreatedAt = d.created
		nc.cur = p
		nc.curSeq = 0
		// Claim the VC with the most credits for the whole packet
		// (wormhole: one VC per packet per hop), never an escape VC.
		best := nc.minVC
		for v := best + 1; v < len(nc.credits); v++ {
			if nc.credits[v] > nc.credits[best] {
				best = v
			}
		}
		nc.curVC = best
	}

	if !nc.ch.Usable(now) {
		nc.active = false
		if !nc.wakePending {
			nc.wakePending = true
			at := nc.ch.NextUsableAt(now)
			if at <= now {
				at = now + 1
			}
			nc.sh.Schedule(at, nc.selfKey, sim.HandlerID(sim.HNICWake, uint32(nc.node), 0))
		}
		return false
	}
	if nc.credits[nc.curVC] == 0 {
		// Out of credits: the router's credit return reactivates us.
		nc.active = false
		return false
	}

	nc.credits[nc.curVC]--
	f := router.FlitRef{Pkt: nc.cur, Seq: nc.curSeq, VC: int8(nc.curVC)}
	nc.ch.Send(now, f)
	nc.curSeq++
	if int(nc.curSeq) == nc.cur.Len {
		nc.cur = nil
	}
	return true
}
