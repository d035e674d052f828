package iosim

// Log is an Accountant that records charges, in order, for replay into
// another accountant later. Index builds that run side by side each
// charge a private Log; replaying the logs into the shared Device in the
// order a serial build would have charged them leaves the Device — its
// counters and its buffer pool — exactly as that serial build would.
//
// Access reports a hit: the true verdict is decided at replay. A Log is
// not safe for concurrent use.
type Log struct {
	ops []logOp
}

type opKind uint8

const (
	opAccess opKind = iota
	opWrite
	opInvalidate
)

type logOp struct {
	page PageID
	kind opKind
}

// Access implements Accountant by recording the read.
func (l *Log) Access(p PageID) bool {
	l.ops = append(l.ops, logOp{p, opAccess})
	return true
}

// Write implements Accountant by recording the write.
func (l *Log) Write(p PageID) { l.ops = append(l.ops, logOp{p, opWrite}) }

// Invalidate implements Accountant by recording the invalidation.
func (l *Log) Invalidate(p PageID) { l.ops = append(l.ops, logOp{p, opInvalidate}) }

// Replay charges the recorded sequence to dst, in order, and empties the
// log. Reads go through a Batcher, which is stats-equivalent to charging
// them one at a time (see BatchAccountant).
func (l *Log) Replay(dst Accountant) {
	b := NewBatcher(dst)
	for _, op := range l.ops {
		switch op.kind {
		case opAccess:
			b.Access(op.page)
		case opWrite:
			b.Write(op.page)
		case opInvalidate:
			b.Invalidate(op.page)
		}
	}
	b.Flush()
	l.ops = nil
}
