// Replication support: the record-stream tap a leader store feeds, the
// raw-apply Replica store a follower mirrors the stream into, a streamable
// record iterator for catch-up, and the persisted fencing epoch.
//
// The division of labour with internal/replicate: this file knows the
// on-disk format (frames, journal headers, checkpoint files, the epoch
// file) and nothing about the network; the replicate package owns the
// protocol, buffering and failure detection and treats record payloads as
// opaque bytes.

package durable

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/faults"
)

// Tap observes a Store's record stream for replication. All hooks except
// Barrier are called with the store's internal locks held and must only
// enqueue — never block, and never call back into the store.
//
//   - AppendRecord fires once per successfully appended record, in ticket
//     order, with the raw journal payload (ownership transfers to the tap).
//   - Rotate fires when a checkpoint rotates the journal to a new epoch,
//     ordered against AppendRecord calls.
//   - Checkpoint fires after a checkpoint file is atomically installed,
//     with the full encoded file.
//   - Barrier blocks until every record with ticket ≤ idx is acknowledged
//     by the replica, the tap decides to proceed without one (replica
//     declared dead), or the leader is fenced (error). It is called
//     outside the store locks, after the local fsync, by both publish
//     barriers and delivery-ack barriers (AckBarrier).
type Tap interface {
	AppendRecord(idx int64, payload []byte)
	Rotate(journalEpoch int64)
	Checkpoint(journalEpoch int64, raw []byte)
	Barrier(idx int64) error
}

// CatchupSnapshot captures a consistent view of the store's on-disk state
// for a follower resync: the installed checkpoint file (nil when none has
// been committed) and the ticket of the last record guaranteed flushed to
// the journals at capture time. Records appended after the capture overlap
// the live stream; replay idempotence makes the duplicated suffix
// harmless.
func (s *Store) CatchupSnapshot() (ckptRaw []byte, lastIdx int64, err error) {
	s.syncMu.Lock()
	defer s.syncMu.Unlock()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, 0, ErrClosed
	}
	if s.crash.Dead() {
		s.mu.Unlock()
		return nil, 0, faults.ErrCrashed
	}
	lastIdx = s.writeSeq
	ferr := s.bw.Flush()
	f := s.f
	s.mu.Unlock()
	if ferr != nil {
		return nil, 0, fmt.Errorf("durable: flush: %w", ferr)
	}
	if err := f.Sync(); err != nil {
		return nil, 0, fmt.Errorf("durable: fsync: %w", err)
	}
	s.synced = lastIdx
	ckptRaw, err = os.ReadFile(filepath.Join(s.dir, ckptName))
	if errors.Is(err, os.ErrNotExist) {
		return nil, lastIdx, nil
	}
	if err != nil {
		return nil, 0, fmt.Errorf("durable: %w", err)
	}
	return ckptRaw, lastIdx, nil
}

// DecodeCheckpointMeta returns the journal epoch and base fingerprint
// stamped into an encoded checkpoint file, validating magic and CRC.
func DecodeCheckpointMeta(raw []byte) (epoch int64, base BaseInfo, err error) {
	_, epoch, base, err = decodeCheckpoint(raw)
	return epoch, base, err
}

// IterateRecords streams the raw payload of every journal record under
// dir, oldest epoch first, in append order — the catch-up source for a
// follower resync. fromEpoch skips journals below it (pass the checkpoint
// epoch; 0 streams everything present). A torn tail in the newest journal
// ends the stream cleanly (the live stream re-ships anything past it);
// corruption elsewhere is an error. The payload passed to fn is reused
// between calls — copy it to retain it.
func IterateRecords(dir string, fromEpoch int64, base BaseInfo, fn func(journalEpoch int64, payload []byte) error) error {
	epochs, err := listJournals(dir)
	if err != nil {
		return err
	}
	epochs = epochsFrom(epochs, fromEpoch)
	var scratch []byte
	for i, epoch := range epochs {
		last := i == len(epochs)-1
		if err := iterateJournal(dir, epoch, base, last, &scratch, fn); err != nil {
			return err
		}
	}
	return nil
}

func iterateJournal(dir string, epoch int64, base BaseInfo, last bool, scratch *[]byte, fn func(int64, []byte) error) error {
	f, err := os.Open(filepath.Join(dir, journalName(epoch)))
	if err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	defer f.Close()
	hdr := make([]byte, journalHeaderLen)
	if _, err := io.ReadFull(f, hdr); err != nil {
		return fmt.Errorf("durable: journal %d header: %w", epoch, err)
	}
	gotEpoch, gotBase, err := decodeJournalHeader(hdr)
	if err != nil {
		return fmt.Errorf("durable: journal %d: %w", epoch, err)
	}
	if gotEpoch != epoch || gotBase != base {
		return fmt.Errorf("durable: journal %d header mismatch (epoch %d, base %x/%d)",
			epoch, gotEpoch, gotBase.Hash, gotBase.Count)
	}
	br := bufio.NewReaderSize(f, 64<<10)
	for {
		payload, _, err := readFrame(br, scratch)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			if last {
				return nil // torn tail: the live stream covers the rest
			}
			return fmt.Errorf("durable: journal %d corrupt mid-stream: %w", epoch, err)
		}
		if err := fn(epoch, payload); err != nil {
			return err
		}
	}
}

// ---- fencing epoch ------------------------------------------------------

const (
	epochMagic   = "PSEPO1\x00\x00"
	epochName    = "epoch.bin"
	epochTmpName = "epoch.tmp"
)

// LoadEpoch reads the persisted replication fencing epoch from dir (0 when
// none was ever stored).
func LoadEpoch(dir string) (int64, error) {
	b, err := os.ReadFile(filepath.Join(dir, epochName))
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("durable: %w", err)
	}
	if len(b) != len(epochMagic)+12 || string(b[:8]) != epochMagic {
		return 0, errors.New("durable: bad epoch file")
	}
	term := int64(binary.LittleEndian.Uint64(b[8:]))
	if crc32.Checksum(b[8:16], castagnoli) != binary.LittleEndian.Uint32(b[16:]) {
		return 0, errors.New("durable: epoch file CRC mismatch")
	}
	return term, nil
}

// StoreEpoch durably persists the replication fencing epoch in dir
// (temp write, fsync, atomic rename, directory fsync). A follower must
// persist its new epoch before acting as leader: fencing only works if a
// restart cannot forget a promotion.
func StoreEpoch(dir string, term int64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	b := make([]byte, 0, len(epochMagic)+12)
	b = append(b, epochMagic...)
	b = binary.LittleEndian.AppendUint64(b, uint64(term))
	b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(b[8:16], castagnoli))
	tmp := filepath.Join(dir, epochTmpName)
	if err := writeFileSync(tmp, b); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, epochName)); err != nil {
		return fmt.Errorf("durable: installing epoch: %w", err)
	}
	return syncDir(dir)
}

// ---- follower replica ---------------------------------------------------

// ErrNoJournal is returned by Replica appends before a Reset established
// the journal position — the protocol always opens with a catch-up.
var ErrNoJournal = errors.New("durable: replica has no journal (catch-up pending)")

// Replica is the follower half of a replicated pair: a raw-apply store
// that mirrors a leader's record stream into an identical on-disk layout
// (journals, rotations, checkpoint installs) without interpreting the
// records. Promotion closes the Replica and runs ordinary recovery —
// broker.Open — over the directory, so failover reuses the exact
// crash-restart machinery the chaos suite already proves out.
//
// The same simulated-crash contract as Store applies: injected crash
// points flush previously-applied records to the OS before dying, so a
// record the follower acknowledged is always visible to the promoted
// incarnation.
type Replica struct {
	dir   string
	base  BaseInfo
	crash *faults.CrashInjector

	mu      sync.Mutex
	f       *os.File
	bw      *bufio.Writer
	epoch   int64
	applied int64
	closed  bool
}

// OpenReplica prepares dir to receive a replicated stream. Any previous
// contents stay untouched until the leader's catch-up decides the sync
// point (Reset wipes and re-seeds the directory).
func OpenReplica(dir string, base BaseInfo, opts Options) (*Replica, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("durable: %w", err)
	}
	os.Remove(filepath.Join(dir, ckptTmpName))
	os.Remove(filepath.Join(dir, epochTmpName))
	return &Replica{dir: dir, base: base, crash: opts.Crash}, nil
}

// Reset wipes the replica's journals and checkpoint and re-seeds them for
// a full resync: ckptRaw (leader's current checkpoint file, may be nil)
// is installed verbatim and a fresh journal is opened at journalEpoch.
func (r *Replica) Reset(journalEpoch int64, ckptRaw []byte) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return ErrClosed
	}
	if r.crash.Dead() {
		return faults.ErrCrashed
	}
	if r.f != nil {
		r.f.Close()
		r.f, r.bw = nil, nil
	}
	epochs, err := listJournals(r.dir)
	if err != nil {
		return err
	}
	for _, e := range epochs {
		os.Remove(filepath.Join(r.dir, journalName(e)))
	}
	os.Remove(filepath.Join(r.dir, ckptName))
	if len(ckptRaw) > 0 {
		epoch, base, err := DecodeCheckpointMeta(ckptRaw)
		if err != nil {
			return err
		}
		if base != r.base {
			return fmt.Errorf("durable: replica checkpoint base mismatch (%x/%d, want %x/%d)",
				base.Hash, base.Count, r.base.Hash, r.base.Count)
		}
		if epoch > journalEpoch {
			return fmt.Errorf("durable: replica checkpoint epoch %d past journal epoch %d", epoch, journalEpoch)
		}
		tmp := filepath.Join(r.dir, ckptTmpName)
		if err := writeFileSync(tmp, ckptRaw); err != nil {
			return err
		}
		if err := os.Rename(tmp, filepath.Join(r.dir, ckptName)); err != nil {
			return fmt.Errorf("durable: installing checkpoint: %w", err)
		}
	}
	if err := syncDir(r.dir); err != nil {
		return err
	}
	r.applied = 0
	return r.openJournal(journalEpoch)
}

// openJournal creates the journal for epoch and installs it as the apply
// target. Caller holds r.mu.
func (r *Replica) openJournal(epoch int64) error {
	f, err := os.OpenFile(filepath.Join(r.dir, journalName(epoch)), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	if _, err := f.Write(encodeJournalHeader(epoch, r.base)); err != nil {
		f.Close()
		return fmt.Errorf("durable: journal header: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("durable: journal header: %w", err)
	}
	if err := syncDir(r.dir); err != nil {
		f.Close()
		return err
	}
	r.f = f
	r.bw = bufio.NewWriterSize(f, 64<<10)
	r.epoch = epoch
	return nil
}

// AppendRaw applies one shipped record payload (buffered; Sync is the
// durability barrier before acknowledging the leader). Crash points fire
// here with the same semantics as leader appends, so the chaos suite can
// kill the follower mid-catch-up and mid-stream.
func (r *Replica) AppendRaw(payload []byte) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return ErrClosed
	}
	if r.f == nil {
		return ErrNoJournal
	}
	switch r.crash.OnAppend() {
	case faults.CrashBeforeAppend:
		r.bw.Flush()
		return faults.ErrCrashed
	case faults.CrashTornAppend:
		frame := appendFrame(nil, payload)
		r.bw.Write(frame[:frameHeaderLen+len(payload)/2])
		r.bw.Flush()
		r.f.Sync()
		return faults.ErrCrashed
	case faults.CrashAfterAppend:
		r.bw.Write(appendFrame(nil, payload))
		r.bw.Flush()
		r.f.Sync()
		return faults.ErrCrashed
	}
	if _, err := r.bw.Write(appendFrame(nil, payload)); err != nil {
		return fmt.Errorf("durable: replica append: %w", err)
	}
	r.applied++
	return nil
}

// Rotate mirrors a leader checkpoint rotation: sync the current journal,
// open a fresh one for epoch. Rotations at or below the current epoch are
// duplicates from a catch-up overlap and are ignored.
func (r *Replica) Rotate(epoch int64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return ErrClosed
	}
	if r.crash.Dead() {
		return faults.ErrCrashed
	}
	if r.f == nil {
		return ErrNoJournal
	}
	if epoch <= r.epoch {
		return nil
	}
	if err := r.bw.Flush(); err != nil {
		return fmt.Errorf("durable: flush: %w", err)
	}
	if err := r.f.Sync(); err != nil {
		return fmt.Errorf("durable: fsync: %w", err)
	}
	old := r.f
	if err := r.openJournal(epoch); err != nil {
		return err
	}
	old.Close()
	return nil
}

// InstallCheckpoint mirrors a leader checkpoint commit: the encoded file
// is validated, written and atomically renamed into place, and journals
// below its epoch are deleted — after the current journal is synced, so
// nothing the dropped journals held is lost.
func (r *Replica) InstallCheckpoint(epoch int64, raw []byte) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return ErrClosed
	}
	if r.crash.Dead() {
		return faults.ErrCrashed
	}
	gotEpoch, base, err := DecodeCheckpointMeta(raw)
	if err != nil {
		return err
	}
	if base != r.base {
		return fmt.Errorf("durable: replica checkpoint base mismatch (%x/%d, want %x/%d)",
			base.Hash, base.Count, r.base.Hash, r.base.Count)
	}
	if gotEpoch != epoch {
		return fmt.Errorf("durable: shipped checkpoint claims epoch %d, expected %d", gotEpoch, epoch)
	}
	if r.f != nil {
		if err := r.bw.Flush(); err != nil {
			return fmt.Errorf("durable: flush: %w", err)
		}
		if err := r.f.Sync(); err != nil {
			return fmt.Errorf("durable: fsync: %w", err)
		}
	}
	tmp := filepath.Join(r.dir, ckptTmpName)
	if err := writeFileSync(tmp, raw); err != nil {
		return err
	}
	if r.crash.OnCheckpoint() {
		return faults.ErrCrashed
	}
	if err := os.Rename(tmp, filepath.Join(r.dir, ckptName)); err != nil {
		return fmt.Errorf("durable: installing checkpoint: %w", err)
	}
	if err := syncDir(r.dir); err != nil {
		return err
	}
	for e := epoch - 1; e >= 1; e-- {
		if err := os.Remove(filepath.Join(r.dir, journalName(e))); err != nil {
			break
		}
	}
	return nil
}

// Sync flushes and fsyncs the current journal — the follower's durability
// barrier before acknowledging applied records to the leader.
func (r *Replica) Sync() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return ErrClosed
	}
	if r.crash.Dead() {
		return faults.ErrCrashed
	}
	if r.f == nil {
		return nil
	}
	if err := r.bw.Flush(); err != nil {
		return fmt.Errorf("durable: flush: %w", err)
	}
	if err := r.f.Sync(); err != nil {
		return fmt.Errorf("durable: fsync: %w", err)
	}
	return nil
}

// Epoch returns the journal epoch currently being applied (0 before the
// first Reset).
func (r *Replica) Epoch() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.epoch
}

// Applied returns the records applied since the last Reset.
func (r *Replica) Applied() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.applied
}

// Crashed reports whether an injected crash point has fired.
func (r *Replica) Crashed() bool { return r.crash.Dead() }

// Close flushes and closes the replica. The directory is left exactly as
// the stream last synced it — ready for broker.Open to promote.
func (r *Replica) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil
	}
	r.closed = true
	if r.f == nil {
		return nil
	}
	if r.crash.Dead() {
		r.f.Close()
		return nil
	}
	err := r.bw.Flush()
	if serr := r.f.Sync(); err == nil {
		err = serr
	}
	if cerr := r.f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("durable: replica close: %w", err)
	}
	return nil
}
