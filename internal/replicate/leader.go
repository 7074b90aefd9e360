package replicate

import (
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/broker"
	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/faults"
	"repro/internal/health"
	"repro/internal/wire"
	"repro/internal/workload"
)

// LeaderConfig tunes the leader half of a replicated pair.
type LeaderConfig struct {
	// AckTimeout bounds how long a replication barrier waits for the
	// follower before declaring it dead and continuing solo. Default 1s.
	AckTimeout time.Duration
	// Heartbeat is the ping cadence on an idle replication session —
	// the follower's failure detector feeds on it. Default 100ms.
	Heartbeat time.Duration
	// EpochDir, when set, holds the fencing-epoch file separately from
	// the data directory — e.g. on storage that survives a data-dir
	// rebuild. Defaults to the data directory.
	EpochDir string
	// MaxFrame bounds replication frames (default wire.DefaultMaxFrame).
	MaxFrame int
	// Health tunes the failure detector watching the follower.
	Health health.Config
	// Durable tunes the underlying store (checkpoint cadence, crash
	// injection). The replication tap is installed on top of it.
	Durable durable.Options
}

func (c *LeaderConfig) setDefaults() {
	if c.AckTimeout == 0 {
		c.AckTimeout = defaultAckTimeout
	}
	if c.Heartbeat == 0 {
		c.Heartbeat = defaultHeartbeat
	}
	c.MaxFrame = defaultMaxFrame(c.MaxFrame)
}

// LeaderStats counts replication-side events on a leader.
type LeaderStats struct {
	Resyncs        int64 // follower sessions accepted (each is a full resync)
	RecordsShipped int64 // live records shipped (excludes catch-up)
	CatchupRecords int64 // records streamed from disk during catch-ups
	Acked          int64 // highest follower-acknowledged ship index
	SoloDrops      int64 // times an unresponsive follower was dropped
	Fences         int64 // times this leader observed a higher epoch
}

// entry is one buffered stream element: a record (rec set) or a
// rotation/checkpoint marker (rec nil). idx is the record's barrier
// ticket; markers carry the ticket of the last preceding record so the
// prune watermark can pass them.
type entry struct {
	idx   int64
	rec   []byte
	epoch int64
	ckpt  []byte
}

// feed is one follower session.
type feed struct {
	conn net.Conn
	w    *wire.Writer
	wmu  sync.Mutex // shipper vs heartbeat writes

	// progress is the last sign of follower liveness (unix nanos): a
	// catch-up batch flushed out, or any frame received back. Leader-
	// initiated heartbeats deliberately do not count — a pulse the leader
	// generates itself proves nothing about the other side.
	progress atomic.Int64

	// cursor (next buf element to ship), catching, snapIdx and dead are
	// guarded by Leader.mu.
	cursor   int
	catching bool  // resync in flight: barriers extend instead of dropping
	snapIdx  int64 // catch-up snapshot ticket; the ack that ends catching
	dead     bool
}

func (s *feed) touch() { s.progress.Store(time.Now().UnixNano()) }

// alive reports whether the session showed liveness within window.
func (s *feed) alive(window time.Duration) bool {
	return time.Since(time.Unix(0, s.progress.Load())) < window
}

func (s *feed) write(payloads ...[]byte) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	for _, p := range payloads {
		if err := s.w.WriteFrame(p); err != nil {
			return err
		}
	}
	return s.w.Flush()
}

// Leader is a durable broker whose journal record stream is shipped to a
// warm-standby follower. It implements durable.Tap (the store feeds it)
// and broker.Shard (callers publish through it like any broker); a
// Publish only acknowledges once its record is fsynced on both sides or
// the follower has been declared dead.
type Leader struct {
	cfg      LeaderConfig
	dir      string
	epochDir string
	b        *broker.Broker
	store    *durable.Store
	tracker  *health.Tracker

	mu      sync.Mutex
	cond    *sync.Cond
	term    int64
	fenced  bool
	killed  bool // simulated process death: refuse sessions silently
	closed  bool
	lastIdx int64 // ticket of the most recent tapped record
	// soloIdx is the ticket of the most recent record appended with no
	// live session on a leader not killed — one whose barrier, asked at
	// append time, would have passed solo (see Barrier).
	soloIdx int64
	acked   int64 // follower-acknowledged ship index
	buf     []entry
	sess    *feed
	ln      net.Listener
	stats   LeaderStats
}

// leaderTap adapts Leader to durable.Tap (Shard and Tap both want a
// Checkpoint method, with different shapes).
type leaderTap struct{ l *Leader }

var _ durable.Tap = leaderTap{}
var _ broker.Shard = (*Leader)(nil)

func (t leaderTap) AppendRecord(idx int64, payload []byte) { t.l.tapAppend(idx, payload) }
func (t leaderTap) Rotate(journalEpoch int64)              { t.l.tapRotate(journalEpoch) }
func (t leaderTap) Checkpoint(journalEpoch int64, raw []byte) {
	t.l.tapCheckpoint(journalEpoch, raw)
}
func (t leaderTap) Barrier(idx int64) error { return t.l.Barrier(idx) }

// OpenLeader opens (or recovers) a durable broker over dir with the
// replication tap installed, loading the persisted fencing epoch (a
// fresh directory starts at term 1). The leader starts solo; followers
// attach via Accept or Serve.
func OpenLeader(dir string, engine *core.Engine, cfg LeaderConfig, opts ...broker.Option) (*Leader, error) {
	cfg.setDefaults()
	epochDir := cfg.EpochDir
	if epochDir == "" {
		epochDir = dir
	}
	term, err := durable.LoadEpoch(epochDir)
	if err != nil {
		return nil, err
	}
	if term == 0 {
		term = 1
		if err := durable.StoreEpoch(epochDir, term); err != nil {
			return nil, err
		}
	}
	l := &Leader{cfg: cfg, dir: dir, epochDir: epochDir, term: term, tracker: newTracker(cfg.Health)}
	l.cond = sync.NewCond(&l.mu)
	dopts := cfg.Durable
	dopts.Tap = leaderTap{l}
	opts = append(append([]broker.Option(nil), opts...), broker.WithDurableOptions(dopts))
	b, err := broker.Open(dir, engine, opts...)
	if err != nil {
		return nil, err
	}
	l.b = b
	// Barrier reads the store under mu, and Open's recovery redeliveries
	// may already be acking — and so barriering — on the broker's fan-out
	// workers.
	l.mu.Lock()
	l.store = b.Store()
	l.mu.Unlock()
	return l, nil
}

// ---- durable.Tap --------------------------------------------------------

// tapAppend buffers one appended record for the live stream. Called
// under the store's locks: enqueue only. With no session attached the
// record is dropped — the next catch-up reads it from disk.
func (l *Leader) tapAppend(idx int64, payload []byte) {
	l.mu.Lock()
	l.lastIdx = idx
	if l.sess != nil {
		l.buf = append(l.buf, entry{idx: idx, rec: payload})
		l.cond.Broadcast()
	}
	if (l.sess == nil || l.sess.dead) && !l.killed {
		l.soloIdx = idx
	}
	l.mu.Unlock()
}

// tapRotate buffers a journal-rotation marker, ordered against appends.
func (l *Leader) tapRotate(journalEpoch int64) {
	l.mu.Lock()
	if l.sess != nil {
		l.buf = append(l.buf, entry{idx: l.lastIdx, epoch: journalEpoch})
		l.cond.Broadcast()
	}
	l.mu.Unlock()
}

// tapCheckpoint buffers a checkpoint-install marker carrying the encoded
// checkpoint file.
func (l *Leader) tapCheckpoint(journalEpoch int64, raw []byte) {
	l.mu.Lock()
	if l.sess != nil {
		l.buf = append(l.buf, entry{idx: l.lastIdx, epoch: journalEpoch, ckpt: raw})
		l.cond.Broadcast()
	}
	l.mu.Unlock()
}

// Barrier blocks until the follower has acknowledged every record with
// ticket ≤ idx, there is no follower to wait for, or the wait times out —
// in which case the follower is declared dead and the leader continues
// solo. Returns ErrFenced once a higher epoch has been observed.
func (l *Leader) Barrier(idx int64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	var armed *time.Timer
	defer func() {
		if armed != nil {
			armed.Stop()
		}
	}()
	var deadline time.Time
	for {
		if l.acked >= idx {
			// The follower has the record — safe to proceed even on a
			// dying leader (both sides will suppress the replay).
			return nil
		}
		if l.fenced {
			return ErrFenced
		}
		crashed := l.store != nil && l.store.Crashed()
		if l.sess == nil || l.sess.dead {
			if l.killed || (crashed && idx > l.soloIdx) {
				// No follower and this leader is dying: the op must not be
				// acknowledged or observed here — the promoted side never
				// saw its record, so proceeding would lose an ack or mint
				// a duplicate. A record appended while the leader was solo
				// is the exception to a store crash: its barrier passed
				// solo at append time, and a caller that batches barriers
				// (the broker's delivery acks, one per event) must get
				// that answer, or it drops a copy whose ack the local
				// journal already holds.
				return faults.ErrCrashed
			}
			// Solo: availability over redundancy for a healthy leader.
			return nil
		}
		if armed == nil {
			// sync.Cond has no timed wait: arm a one-shot broadcast at
			// the deadline so the loop re-checks it.
			deadline = time.Now().Add(l.cfg.AckTimeout)
			armed = time.AfterFunc(l.cfg.AckTimeout, func() {
				l.mu.Lock()
				l.cond.Broadcast()
				l.mu.Unlock()
			})
		} else if !time.Now().Before(deadline) {
			// Mid-resync liveness is coarse: the follower acks once per
			// applied catch-up frame (up to shipBatch records), so allow a
			// few AckTimeouts of silence before giving up on the resync.
			if l.sess.catching && l.sess.alive(3*l.cfg.AckTimeout) {
				// Mid-resync the follower legitimately cannot ack new
				// tickets yet. While catch-up traffic is still flowing
				// (batches flushing out, per-batch acks coming back),
				// extend the wait instead of severing a session that would
				// only restart the resync from scratch — under steady
				// publish load that severing livelocks the pair into
				// perpetual catch-up and silently unreplicated operation.
				deadline = time.Now().Add(l.cfg.AckTimeout)
				armed.Reset(l.cfg.AckTimeout)
				continue
			}
			// The follower stopped acknowledging: drop it; a reconnect
			// resyncs from disk. A dying leader loops once more and takes
			// the ErrCrashed exit above instead of going solo.
			l.stats.SoloDrops++
			l.dropSessionLocked()
			continue
		}
		l.cond.Wait()
	}
}

// ---- session lifecycle --------------------------------------------------

// dropSessionLocked severs the current follower session. Caller holds l.mu.
func (l *Leader) dropSessionLocked() {
	if l.sess == nil {
		return
	}
	l.sess.dead = true
	l.sess.conn.Close()
	l.sess = nil
	l.buf = nil
	l.tracker.ReportFailure(peerNode)
	l.cond.Broadcast()
}

// killSession severs s if it is still the active session.
func (l *Leader) killSession(s *feed) {
	l.mu.Lock()
	if l.sess == s {
		l.dropSessionLocked()
	} else {
		s.dead = true
		s.conn.Close()
	}
	l.mu.Unlock()
}

// fence records that a higher epoch exists: all further writes fail with
// ErrFenced, and the adopted term is persisted so a restart cannot forget.
func (l *Leader) fence(term int64) {
	l.mu.Lock()
	if l.fenced && term <= l.term {
		l.mu.Unlock()
		return
	}
	if term > l.term {
		l.term = term
	}
	l.stats.Fences++
	// Persist before the fence becomes observable: Barrier reports
	// ErrFenced only after this mutex is released, so any publisher that
	// has seen the error may rely on the higher epoch being on disk.
	if err := durable.StoreEpoch(l.epochDir, l.term); err != nil {
		// The fence cannot be made durable — a restart would forget it
		// and serve writes at the stale term, reopening the split-brain
		// window. Fail closed instead: treat this leader as crashed so
		// pending and future barriers return ErrCrashed, never an
		// ErrFenced that advertises an epoch that is not on disk. (A
		// later fence call retries the persist; fenced is still unset.)
		l.killed = true
		l.dropSessionLocked()
		l.cond.Broadcast()
		l.mu.Unlock()
		return
	}
	l.fenced = true
	l.cond.Broadcast()
	l.mu.Unlock()
}

// Accept runs one follower session to completion: full catch-up from
// disk, then live shipping until the connection dies. It blocks for the
// session's lifetime — the transport server and Serve both invoke it on a
// dedicated goroutine. The reader and writer must wrap conn.
func (l *Leader) Accept(conn net.Conn, r *wire.Reader, w *wire.Writer, hello wire.ReplHello) {
	l.mu.Lock()
	if l.killed || l.closed {
		l.mu.Unlock()
		conn.Close()
		return
	}
	if hello.Term > l.term {
		// The "follower" outranks us: it was promoted while we were
		// partitioned. Stand down.
		l.mu.Unlock()
		l.fence(hello.Term)
		w.WriteFrame(wire.AppendEpoch(nil, hello.Term))
		w.Flush()
		conn.Close()
		return
	}
	if l.fenced {
		term := l.term
		l.mu.Unlock()
		w.WriteFrame(wire.AppendEpoch(nil, term))
		w.Flush()
		conn.Close()
		return
	}
	// A new session replaces any existing one (follower reconnect).
	l.dropSessionLocked()
	s := &feed{conn: conn, w: w, catching: true}
	s.touch()
	l.sess = s
	l.buf = nil
	l.stats.Resyncs++
	term := l.term
	l.mu.Unlock()

	// The read loop starts before catch-up: the follower acks every
	// catch-up batch it fsyncs (at its pre-sync watermark), and those acks
	// are the liveness signal that keeps barriers patient during a long
	// resync. The final ack at snapIdx ends the catching state.
	go l.readLoop(s, r)
	if !l.catchup(s, term) {
		l.killSession(s)
		return
	}
	go l.heartbeatLoop(s)
	l.shipLoop(s)
}

// catchup captures a consistent disk snapshot and streams it: checkpoint
// preamble, then every flushed journal record with rotation markers
// between epochs, then an empty end-marker batch assigning the snapshot
// ticket. Live records tapped meanwhile accumulate in buf; the overlap
// with what the disk stream already covered is trimmed (records) or left
// to replica idempotence (markers).
func (l *Leader) catchup(s *feed, term int64) bool {
	ckptRaw, snapIdx, err := l.store.CatchupSnapshot()
	if err != nil {
		return false
	}
	l.mu.Lock()
	// snapIdx is published before the first frame ships: the read loop
	// clears catching on the first ack at or past it.
	s.snapIdx = snapIdx
	l.mu.Unlock()
	// send is write plus a progress touch: each batch the network accepts
	// is evidence the resync is still flowing.
	send := func(payloads ...[]byte) error {
		if err := s.write(payloads...); err != nil {
			return err
		}
		s.touch()
		return nil
	}
	fromEpoch := int64(1)
	if len(ckptRaw) > 0 {
		e, _, err := durable.DecodeCheckpointMeta(ckptRaw)
		if err != nil {
			return false
		}
		fromEpoch = e
	}
	pre := wire.AppendCatchup(nil, wire.Catchup{
		Term: term, JournalEpoch: fromEpoch, LastIdx: snapIdx, Ckpt: ckptRaw,
	})
	if err := send(pre); err != nil {
		return false
	}
	// Catch-up batches carry FirstIdx 0: "apply, indices unknown". Only
	// the end marker below moves the follower's ack watermark.
	var recs [][]byte
	var nbytes int
	var streamed int64
	curEpoch := fromEpoch
	flush := func() error {
		if len(recs) == 0 {
			return nil
		}
		f := wire.AppendReplicate(nil, wire.Replicate{Term: term, Recs: recs})
		recs, nbytes = recs[:0], 0
		return send(f)
	}
	err = durable.IterateRecords(l.store.Dir(), fromEpoch, l.store.Base(), func(epoch int64, payload []byte) error {
		if epoch != curEpoch {
			if err := flush(); err != nil {
				return err
			}
			if err := send(wire.AppendReplRotate(nil, wire.ReplRotate{Term: term, JournalEpoch: epoch})); err != nil {
				return err
			}
			curEpoch = epoch
		}
		recs = append(recs, append([]byte(nil), payload...))
		nbytes += len(payload)
		streamed++
		if len(recs) >= shipBatch || nbytes >= shipBytes {
			return flush()
		}
		return nil
	})
	if err != nil {
		return false
	}
	if err := flush(); err != nil {
		return false
	}
	// End marker: an empty batch at snapIdx+1 tells the follower it is
	// current through snapIdx, which it acks after fsync.
	if err := send(wire.AppendReplicate(nil, wire.Replicate{Term: term, FirstIdx: snapIdx + 1})); err != nil {
		return false
	}

	l.mu.Lock()
	defer l.mu.Unlock()
	if l.sess != s || s.dead {
		return false
	}
	// Records the disk stream covered are dropped from the live buffer;
	// markers stay (the replica ignores duplicates by epoch).
	kept := l.buf[:0]
	for _, e := range l.buf {
		if e.rec != nil && e.idx <= snapIdx {
			continue
		}
		kept = append(kept, e)
	}
	l.buf = kept
	s.cursor = 0
	l.stats.CatchupRecords += streamed
	l.cond.Broadcast()
	return true
}

// shipLoop streams buffered entries to the follower until the session
// dies: consecutive records batch into Replicate frames, markers become
// ReplRotate frames.
func (l *Leader) shipLoop(s *feed) {
	for {
		l.mu.Lock()
		for l.sess == s && !s.dead && s.cursor >= len(l.buf) {
			l.cond.Wait()
		}
		if l.sess != s || s.dead {
			l.mu.Unlock()
			return
		}
		term := l.term
		var frames [][]byte
		var batch wire.Replicate
		var nbytes, nrecs int
		flush := func() {
			if len(batch.Recs) > 0 {
				frames = append(frames, wire.AppendReplicate(nil, batch))
				batch = wire.Replicate{}
				nbytes = 0
			}
		}
		i := s.cursor
		for ; i < len(l.buf) && nrecs < shipBatch && nbytes < shipBytes; i++ {
			e := l.buf[i]
			if e.rec == nil {
				flush()
				frames = append(frames, wire.AppendReplRotate(nil, wire.ReplRotate{
					Term: term, JournalEpoch: e.epoch, Ckpt: e.ckpt,
				}))
				continue
			}
			if len(batch.Recs) == 0 {
				batch.Term, batch.FirstIdx = term, e.idx
			}
			batch.Recs = append(batch.Recs, e.rec)
			nbytes += len(e.rec)
			nrecs++
		}
		flush()
		s.cursor = i
		l.stats.RecordsShipped += int64(nrecs)
		l.mu.Unlock()
		if err := s.write(frames...); err != nil {
			l.killSession(s)
			return
		}
	}
}

// readLoop consumes follower frames: acks release barriers, a higher
// term fences the leader, pongs feed the failure detector.
func (l *Leader) readLoop(s *feed, r *wire.Reader) {
	for {
		payload, err := r.ReadFrame()
		if err != nil {
			l.killSession(s)
			return
		}
		s.touch()
		switch wire.MsgType(payload) {
		case wire.TypeReplAck:
			m, err := wire.DecodeReplAck(payload)
			if err != nil {
				l.killSession(s)
				return
			}
			if m.Term > l.Term() {
				l.fence(m.Term)
				l.killSession(s)
				return
			}
			l.mu.Lock()
			if s.catching && m.Idx >= s.snapIdx {
				// The follower fsynced through the catch-up snapshot: the
				// resync is over, barriers revert to the plain AckTimeout.
				s.catching = false
			}
			if m.Idx > l.acked {
				l.acked = m.Idx
				l.stats.Acked = m.Idx
				l.pruneLocked()
				l.cond.Broadcast()
			}
			l.mu.Unlock()
			l.tracker.ReportSuccess(peerNode, 0)
		case wire.TypeEpoch:
			if t, err := wire.DecodeEpoch(payload); err == nil && t > l.Term() {
				l.fence(t)
			}
			l.killSession(s)
			return
		case wire.TypePong:
			l.tracker.ReportSuccess(peerNode, 0)
		default:
			l.killSession(s)
			return
		}
	}
}

// pruneLocked drops the shipped-and-acknowledged buffer prefix. Caller
// holds l.mu.
func (l *Leader) pruneLocked() {
	s := l.sess
	if s == nil {
		return
	}
	n := 0
	for n < s.cursor && l.buf[n].idx <= l.acked {
		n++
	}
	if n > 0 {
		l.buf = append(l.buf[:0:0], l.buf[n:]...)
		s.cursor -= n
	}
}

// heartbeatLoop pings the follower so its failure detector has a pulse,
// and severs the link when an injected crash kills the store — a dead
// process cannot keep a TCP session warm.
func (l *Leader) heartbeatLoop(s *feed) {
	tick := time.NewTicker(l.cfg.Heartbeat)
	defer tick.Stop()
	for range tick.C {
		l.mu.Lock()
		gone := l.sess != s || s.dead || l.closed
		l.mu.Unlock()
		if gone {
			return
		}
		if l.store.Crashed() {
			// The store refused an op mid-flight: this leader is dying.
			// Everything appended before the dying op is already flushed
			// locally (the simulated-crash contract) and buffered in the
			// tap, so let it finish shipping before severing — pending
			// barriers then resolve definitively (follower acked → the op
			// proceeds; never shipped → ErrCrashed and the promoted side
			// redelivers) instead of racing the session teardown.
			l.drainThenKill()
			return
		}
		if err := s.write(wire.AppendPing(nil, 0)); err != nil {
			l.killSession(s)
			return
		}
	}
}

// drainThenKill waits (bounded by AckTimeout) for the follower to
// acknowledge every record the tap buffered before the store crashed,
// then severs the session. Records past the crash point never reached
// the tap, so the buffer is a fixed pre-crash suffix — the drain is the
// dying leader's last act of determinism.
func (l *Leader) drainThenKill() {
	deadline := time.Now().Add(l.cfg.AckTimeout)
	for time.Now().Before(deadline) {
		l.mu.Lock()
		done := l.sess == nil || l.sess.dead || l.acked >= l.lastIdx
		l.mu.Unlock()
		if done {
			break
		}
		time.Sleep(time.Millisecond)
	}
	l.Kill()
}

// Serve accepts follower connections on ln until it closes, performing
// the replication handshake and running each session on its own
// goroutine. Intended for dedicated replication listeners; when client
// traffic shares the port, wire the transport server's ReplHandler to
// Accept instead.
func (l *Leader) Serve(ln net.Listener) {
	l.mu.Lock()
	l.ln = ln
	l.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		go l.serveConn(conn)
	}
}

func (l *Leader) serveConn(conn net.Conn) {
	r := wire.NewReader(conn, l.cfg.MaxFrame)
	w := wire.NewWriter(conn, l.cfg.MaxFrame)
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	payload, err := r.ReadFrame()
	if err != nil {
		conn.Close()
		return
	}
	hello, err := wire.DecodeReplHello(payload)
	if err != nil {
		conn.Close()
		return
	}
	conn.SetReadDeadline(time.Time{})
	l.Accept(conn, r, w, hello)
}

// Kill simulates abrupt process death for the chaos suite: sever the
// replication session and listener without any goodbye, so the follower
// sees only silence. The broker and store are left untouched (a crashed
// store has already frozen them).
func (l *Leader) Kill() {
	l.mu.Lock()
	l.killed = true
	ln := l.ln
	l.ln = nil
	l.dropSessionLocked()
	l.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
}

// Close shuts the broker down first — its final checkpoint ships through
// the tap while the session is still up — then severs replication.
func (l *Leader) Close() error {
	err := l.b.Close()
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	ln := l.ln
	l.ln = nil
	l.dropSessionLocked()
	l.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	return err
}

// ---- broker.Shard -------------------------------------------------------

// Decide publishes through the underlying broker; the replication
// barrier inside the durable store enforces dual-fsync (or solo fallback)
// before the ack, and ErrFenced surfaces here once superseded.
func (l *Leader) Decide(ev workload.Event) error { return l.b.Publish(ev) }

// DecideSeq is Decide reporting the consumed publication seq (see
// broker.Shard); a seq consumed before an ErrFenced or crash failure is
// reported so a federation router can dedup the mirrored replay.
func (l *Leader) DecideSeq(ev workload.Event) (int64, error) { return l.b.PublishSeq(ev) }

// Apply performs one subscription mutation on the underlying broker.
func (l *Leader) Apply(m broker.Mutation) (int, error) { return l.b.Apply(m) }

// Checkpoint forces a checkpoint on the underlying broker (the install
// marker ships to the follower).
func (l *Leader) Checkpoint() error { return l.b.Checkpoint() }

// Snapshot reports the underlying broker's decision state.
func (l *Leader) Snapshot() broker.ShardInfo { return l.b.Snapshot() }

// ---- accessors ----------------------------------------------------------

// Broker returns the underlying broker (subscribe/consume through it).
func (l *Leader) Broker() *broker.Broker { return l.b }

// Term returns the current fencing epoch.
func (l *Leader) Term() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.term
}

// Fenced reports whether a higher epoch has been observed.
func (l *Leader) Fenced() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.fenced
}

// Solo reports whether the leader is running without a follower session.
func (l *Leader) Solo() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sess == nil
}

// Stats returns a snapshot of the replication counters.
func (l *Leader) Stats() LeaderStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}
