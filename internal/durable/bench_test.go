package durable

import (
	"fmt"
	"testing"

	"repro/internal/topology"
)

// BenchmarkJournalAppend measures buffered append throughput (churn and
// ack records ride this path; durability comes from the next group-commit
// barrier, issued once per batch).
func BenchmarkJournalAppend(b *testing.B) {
	s, _, err := Open(b.TempDir(), BaseInfo{Hash: 1, Count: 1}, quick())
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.AppendAck(topology.NodeID(i%64), int64(i)); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.Sync(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkJournalAppendSync measures the acknowledged-publish path: one
// framed record plus a group-commit fsync barrier per operation. This is
// the per-publish durability cost a single uncontended publisher pays;
// concurrent publishers coalesce barriers and pay less.
func BenchmarkJournalAppendSync(b *testing.B) {
	s, _, err := Open(b.TempDir(), BaseInfo{Hash: 1, Count: 1}, quick())
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	ev := testEvent(1, 0.5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.AppendPublish(int64(i), ev); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkColdRecovery measures a full crash-recovery Open against the
// acceptance-criteria corpus: a checkpoint holding 10 000 churned
// subscriptions plus a 1 000-record journal tail of outstanding publishes.
func BenchmarkColdRecovery(b *testing.B) {
	const nSubs, nTail = 10_000, 1_000
	dir := b.TempDir()
	base := BaseInfo{Hash: 99, Count: 0}
	s, _, err := Open(dir, base, quick())
	if err != nil {
		b.Fatal(err)
	}
	if err := s.BeginCheckpoint(); err != nil {
		b.Fatal(err)
	}
	cp := &Checkpoint{NextSeq: 0, NextID: nSubs, Counters: map[string]int64{}}
	for i := 0; i < nSubs; i++ {
		lo := float64(i%100) / 100
		cp.Subs = append(cp.Subs, SubRecord{
			ID:    int64(i),
			Owner: topology.NodeID(i % 500),
			Rect:  testRect(lo, lo+0.01),
		})
	}
	if err := s.CommitCheckpoint(cp); err != nil {
		b.Fatal(err)
	}
	tail := make([]PublishRecord, nTail)
	for i := range tail {
		tail[i] = PublishRecord{Seq: int64(i), Ev: testEvent(topology.NodeID(i%500), 0.5)}
	}
	if err := s.AppendPublishes(tail); err != nil {
		b.Fatal(err)
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, st, err := Open(dir, base, quick())
		if err != nil {
			b.Fatal(err)
		}
		if st == nil || len(st.Subs) != nSubs || len(st.Outstanding) != nTail {
			b.Fatal(fmt.Errorf("recovered %d subs / %d outstanding", len(st.Subs), len(st.Outstanding)))
		}
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
