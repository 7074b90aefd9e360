package main

import "testing"

// TestCheckCountsDroppedAndDuplicatedCopies feeds the oracle a run in which
// one interested copy never arrived and another arrived twice.
func TestCheckCountsDroppedAndDuplicatedCopies(t *testing.T) {
	pubs := []pubRec{
		{seq: 10, done: true, phase: phaseOpen, sched: 100},
		{seq: 11, done: true, phase: phaseOpen, sched: 200},
		{seq: 12, done: true, phase: phaseOpen, sched: 300},
	}
	exp := [][]int32{{1, 2, 3}, {4}, {5, 6}}
	var copies clog[copyRec]
	for _, c := range []copyRec{
		{seq: 10, node: 1, t: 110, interested: true},
		{seq: 10, node: 3, t: 120, interested: true}, // node 2's copy is dropped
		{seq: 10, node: 9, t: 130},                   // group waste: allowed
		{seq: 11, node: 4, t: 210, interested: true},
		{seq: 11, node: 4, t: 220, interested: true}, // duplicated
		{seq: 12, node: 5, t: 310, interested: true},
		{seq: 12, node: 6, t: 320, interested: true},
	} {
		copies.add(c)
	}
	v := check(pubs, exp, &copies, nil, true)
	if got := v.failures[failMissing]; got != 1 {
		t.Errorf("missing copies = %d, want 1", got)
	}
	if got := v.failures[failDuplicate]; got != 1 {
		t.Errorf("duplicate copies = %d, want 1", got)
	}
	if v.failed != 2 || v.attempted != 3 {
		t.Errorf("failed/attempted = %d/%d, want 2/3", v.failed, v.attempted)
	}
	if v.copies != 7 || v.wasted != 1 {
		t.Errorf("copies/wasted = %d/%d, want 7/1", v.copies, v.wasted)
	}
	// Latencies from the due time, one per expected copy's first arrival.
	if len(v.deliver) != 5 {
		t.Errorf("latency samples = %d, want 5", len(v.deliver))
	}
}

// TestCheckCleanRun is the control: every expected copy exactly once, an
// unknown seq and a wrongly flagged copy are each reported by kind.
func TestCheckCleanRun(t *testing.T) {
	pubs := []pubRec{{seq: 0, done: true}, {seq: 1, done: true}}
	exp := [][]int32{{1}, {2}}
	var copies clog[copyRec]
	copies.add(copyRec{seq: 0, node: 1, interested: true})
	copies.add(copyRec{seq: 1, node: 2, interested: true})
	if v := check(pubs, exp, &copies, nil, true); v.failed != 0 || len(v.failures) != 0 {
		t.Fatalf("clean run reported %d failed: %v", v.failed, v.failures)
	}
	copies.add(copyRec{seq: 7, node: 1, interested: true}) // no such publish
	copies.add(copyRec{seq: 1, node: 3, interested: true}) // not interested per oracle
	v := check(pubs, exp, &copies, nil, true)
	if v.failures[failUnknown] != 1 || v.failures[failFlag] != 1 {
		t.Fatalf("failures = %v, want one unknown_seq and one interest_flag", v.failures)
	}
	// Without strict flags (churn), an extra interested copy is allowed.
	if v := check(pubs, exp, &copies, nil, false); v.failures[failFlag] != 0 {
		t.Fatalf("non-strict check flagged %v", v.failures)
	}
}
