package main

import (
	"cmp"
	"slices"
)

// Failure kinds the oracle reports.
const (
	failPublish   = "publish_error"
	failSubscribe = "subscribe_error"
	failMissing   = "missing_copy"
	failDuplicate = "duplicate_copy"
	failUnknown   = "unknown_seq"
	failFlag      = "interest_flag"
	failTimeout   = "closed_loop_timeout"
)

// verdict is the oracle's account of one run.
type verdict struct {
	failures  map[string]int64
	attempted int64 // publishes + subscribe/unsubscribe calls
	failed    int64 // operations with at least one failure
	// deliver holds, for every open-loop event, the latency of each
	// expected copy's first arrival, measured from the event's due time.
	deliver []int64
	// deliverIdx[k] is the event index of deliver[k], ascending.
	deliverIdx []int32
	copies     int64 // copies received, all nodes
	wasted     int64 // copies the delivering layer flagged uninterested
}

// check compares every received copy with the oracle. exp[i] lists, in
// ascending order, the nodes that must receive event i exactly once.
// A copy to a node outside exp[i] is allowed (group waste, or a churned
// subscription), but flagged interested it is a failure when strict is
// set; a second copy of (node, seq) is always a failure.
func check(pubs []pubRec, exp [][]int32, copies *clog[copyRec], ops []opRec, strict bool) verdict {
	v := verdict{failures: map[string]int64{}}
	seqIdx := make(map[int64]int32, len(pubs))
	for i, p := range pubs {
		if p.done && p.seq >= 0 {
			seqIdx[p.seq] = int32(i)
		}
	}
	type got struct {
		idx        int32
		node       int32
		t          int64
		interested bool
	}
	n := copies.len()
	all := make([]got, 0, n)
	for k := 0; k < n; k++ {
		c := copies.at(k)
		v.copies++
		if !c.interested {
			v.wasted++
		}
		idx, ok := seqIdx[c.seq]
		if !ok {
			v.failures[failUnknown]++
			continue
		}
		all = append(all, got{idx: idx, node: c.node, t: c.t, interested: c.interested})
	}
	slices.SortFunc(all, func(a, b got) int {
		if c := cmp.Compare(a.idx, b.idx); c != 0 {
			return c
		}
		if c := cmp.Compare(a.node, b.node); c != 0 {
			return c
		}
		return cmp.Compare(a.t, b.t)
	})
	bad := make([]bool, len(pubs))
	k := 0
	for i := range pubs {
		p := &pubs[i]
		if !p.done {
			for k < len(all) && int(all[k].idx) == i {
				k++
			}
			continue
		}
		v.attempted++
		if p.err {
			v.failures[failPublish]++
			bad[i] = true
		}
		if p.timeout {
			v.failures[failTimeout]++
			bad[i] = true
		}
		want := exp[i]
		w := 0
		for k < len(all) && int(all[k].idx) == i {
			c := all[k]
			k++
			for w < len(want) && want[w] < c.node {
				if !p.err {
					v.failures[failMissing]++
					bad[i] = true
				}
				w++
			}
			expected := w < len(want) && want[w] == c.node
			if k > 1 && all[k-2].idx == c.idx && all[k-2].node == c.node {
				v.failures[failDuplicate]++
				bad[i] = true
				continue
			}
			if expected {
				w++
				if !c.interested {
					v.failures[failFlag]++
					bad[i] = true
				}
				if p.phase == phaseOpen {
					v.deliver = append(v.deliver, c.t-p.sched)
					v.deliverIdx = append(v.deliverIdx, int32(i))
				}
			} else if strict && c.interested {
				v.failures[failFlag]++
				bad[i] = true
			}
		}
		if !p.err {
			for ; w < len(want); w++ {
				v.failures[failMissing]++
				bad[i] = true
			}
		}
	}
	v.failed = v.failures[failUnknown]
	for _, b := range bad {
		if b {
			v.failed++
		}
	}
	for _, o := range ops {
		v.attempted++
		if o.err {
			v.failures[failSubscribe]++
			v.failed++
		}
	}
	return v
}
