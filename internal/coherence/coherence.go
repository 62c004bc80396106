// Package coherence implements the directory-based MESI protocol's decision
// logic as pure functions over directory entries. The memory system
// (internal/memsys) owns sequencing, queueing and timing; this package owns
// the state machine, so protocol transitions are unit-testable in isolation.
//
// The protocol follows the paper's setup: an inclusive shared L2/LLC with an
// embedded directory, private L1s, and a new Spec-GetS transaction that
// obtains the latest copy of a line without changing any cache or coherence
// state (paper §VI-E1). A Spec-GetS forwarded to an owner that no longer
// holds the line is bounced back to the requester, which retries.
package coherence

import "fmt"

// State is an L1 line's MESI state. The directory does not distinguish E
// from M (an E-state owner may have silently upgraded), so directory
// decisions treat any owned line as potentially dirty.
type State uint8

// MESI states.
const (
	Invalid State = iota
	Shared
	Exclusive
	Modified
)

// String returns the state initial.
func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	}
	return fmt.Sprintf("State(%d)", uint8(s))
}

// DirEntry is the directory's view of one line (embedded in the LLC line).
type DirEntry struct {
	// Present reports whether the line is resident in the LLC. The LLC is
	// inclusive: any line cached in an L1 is Present.
	Present bool
	// Sharers is a bitmap of cores holding the line in Shared state.
	Sharers uint64
	// Owner is the core holding the line in Exclusive/Modified state, or -1.
	Owner int
}

// NoOwner is the Owner value of an unowned line.
const NoOwner = -1

// HasSharer reports whether core holds a Shared copy.
func (e DirEntry) HasSharer(core int) bool { return e.Sharers&(1<<uint(core)) != 0 }

// ReqKind is a coherence transaction type.
type ReqKind uint8

// Transaction kinds.
const (
	GetS     ReqKind = iota // read for sharing (loads, validations, exposures, ifetch)
	GetX                    // read for ownership (stores, atomics)
	PutS                    // clean eviction of a Shared copy
	PutM                    // eviction of an Exclusive/Modified copy (data writeback)
	SpecGetS                // InvisiSpec stateless read
)

// String names the transaction.
func (k ReqKind) String() string {
	switch k {
	case GetS:
		return "GetS"
	case GetX:
		return "GetX"
	case PutS:
		return "PutS"
	case PutM:
		return "PutM"
	case SpecGetS:
		return "Spec-GetS"
	}
	return fmt.Sprintf("ReqKind(%d)", uint8(k))
}

// Decision tells the memory system what a transaction must do.
type Decision struct {
	// Grant is the L1 state the requester ends with (Invalid for Put*).
	Grant State
	// FromOwner: data must be forwarded from the current owner's L1.
	FromOwner bool
	// Owner is the forward target when FromOwner is set.
	Owner int
	// OwnerWriteback: the owner also writes the (potentially dirty) line
	// back to the LLC (GetS downgrade of an owned line).
	OwnerWriteback bool
	// FromMemory: the line is not in the LLC; fetch it from DRAM.
	FromMemory bool
	// Invalidate is a bitmap of the cores whose copies must be invalidated
	// (never includes the requester).
	Invalidate uint64
	// InstallLLC: the fetched line is installed in the LLC (all demand
	// fills; never Spec-GetS).
	InstallLLC bool
}

// Decide computes the protocol action for a request on a line and the
// directory entry after the transaction completes. It panics on protocol
// violations that indicate simulator bugs (e.g. PutM from a non-owner is
// NOT one of those — see below — but a negative requester is).
func Decide(e DirEntry, k ReqKind, req int) (Decision, DirEntry) {
	if req < 0 || req >= 64 {
		panic(fmt.Sprintf("coherence: bad requester %d", req))
	}
	switch k {
	case GetS:
		return decideGetS(e, req)
	case GetX:
		return decideGetX(e, req)
	case PutS:
		e.Sharers &^= 1 << uint(req)
		return Decision{Grant: Invalid}, e
	case PutM:
		// A stale PutM (owner already downgraded by an intervening GetS/GetX
		// that the eviction raced with) is dropped without state change.
		if e.Owner == req {
			e.Owner = NoOwner
		}
		return Decision{Grant: Invalid}, e
	case SpecGetS:
		return decideSpecGetS(e, req), e // entry NEVER changes
	}
	panic(fmt.Sprintf("coherence: unknown request kind %v", k))
}

func decideGetS(e DirEntry, req int) (Decision, DirEntry) {
	switch {
	case !e.Present:
		e.Present = true
		e.Owner = req
		e.Sharers = 0
		return Decision{Grant: Exclusive, FromMemory: true, InstallLLC: true}, e
	case e.Owner == req:
		// Requester already owns it (e.g. a validation after the USL's line
		// was independently fetched). Keep ownership.
		return Decision{Grant: Exclusive}, e
	case e.Owner != NoOwner:
		d := Decision{
			Grant:          Shared,
			FromOwner:      true,
			Owner:          e.Owner,
			OwnerWriteback: true, // owner may be M; directory must assume dirty
		}
		e.Sharers |= 1<<uint(e.Owner) | 1<<uint(req)
		e.Owner = NoOwner
		return d, e
	case e.Sharers == 0:
		// MESI exclusive grant: no other copies exist.
		e.Owner = req
		return Decision{Grant: Exclusive}, e
	default:
		e.Sharers |= 1 << uint(req)
		return Decision{Grant: Shared}, e
	}
}

func decideGetX(e DirEntry, req int) (Decision, DirEntry) {
	if !e.Present {
		e.Present = true
		e.Owner = req
		e.Sharers = 0
		return Decision{Grant: Modified, FromMemory: true, InstallLLC: true}, e
	}
	d := Decision{Grant: Modified, Invalidate: e.Sharers &^ (1 << uint(req))}
	if e.Owner != NoOwner && e.Owner != req {
		d.FromOwner = true
		d.Owner = e.Owner
		d.Invalidate |= 1 << uint(e.Owner)
	}
	e.Owner = req
	e.Sharers = 0
	return d, e
}

func decideSpecGetS(e DirEntry, req int) Decision {
	switch {
	case !e.Present:
		return Decision{FromMemory: true} // no install anywhere
	case e.Owner != NoOwner && e.Owner != req:
		return Decision{FromOwner: true, Owner: e.Owner}
	default:
		return Decision{} // data from the LLC copy
	}
}

// Recall computes the action for an inclusive-LLC eviction of a line: every
// L1 copy is invalidated, the sharers (a bitmap) and then the owner (or
// NoOwner), and an owned line may be dirty and must be treated as writing
// back to memory.
func Recall(e DirEntry) (sharers uint64, owner int, dirtyPossible bool) {
	return e.Sharers, e.Owner, e.Owner != NoOwner
}
