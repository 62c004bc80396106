package core

import (
	"fmt"
	"reflect"
	"strings"

	"invisispec/internal/bpred"
	"invisispec/internal/isa"
	"invisispec/internal/stats"
)

// WakeState is a copy of everything a core's tick can change, apart from
// the two counters SkipIdle replays across a jump (Cycles and
// ValidationStall). The wake audit takes one wherever the fast kernel would
// jump and compares it with the state the stepped kernel reaches at the end
// of that window.
type WakeState struct {
	ROB      []robEntry // window, oldest first
	ROBHead  int
	LQ       []lqEntry
	LQHead   int
	SQ       []sqEntry
	SQHead   int
	WB       []wbEntry
	FetchBuf []fetchedInst

	PC            int
	FetchInFlight bool
	FetchToken    uint64
	FetchResumeAt uint64
	FetchStalled  bool
	HaltSeen      bool
	Halted        bool
	IExposeFilter [64]uint64
	LastSquash    SquashInfo

	RAT        [isa.NumRegs]int
	Regs       [isa.NumRegs]uint64
	Waiting    []int
	Executing  []int
	Barriers   []int
	OpenFences int

	Epoch     uint64
	NextToken uint64
	CommitSeq uint64

	Bpred         bpred.State
	BpredCounters [4]uint64
	TLBCounters   [2]uint64
	Stats         stats.Core
}

// SnapshotWakeState copies c's state for the wake audit.
func SnapshotWakeState(c *Core) WakeState {
	s := WakeState{
		ROBHead: c.robHead, LQHead: c.lqHead, SQHead: c.sqHead,
		WB:       append([]wbEntry(nil), c.wb...),
		FetchBuf: append([]fetchedInst(nil), c.fetchBuf...),

		PC: c.pc, FetchInFlight: c.fetchInFlight, FetchToken: c.fetchToken,
		FetchResumeAt: c.fetchResumeAt, FetchStalled: c.fetchStalled,
		HaltSeen: c.haltSeen, Halted: c.halted,
		IExposeFilter: c.iExposeFilter, LastSquash: c.lastSquash,

		RAT: c.rat, Regs: c.regs,
		Waiting:    append([]int(nil), c.waiting...),
		Executing:  append([]int(nil), c.executing...),
		Barriers:   append([]int(nil), c.barriers...),
		OpenFences: c.openFences,

		Epoch: c.epoch, NextToken: c.nextToken, CommitSeq: c.commitSeq,

		Bpred:         c.bp.Snapshot(),
		BpredCounters: [4]uint64{c.bp.CondPredicts, c.bp.CondMispredics, c.bp.BTBLookups, c.bp.BTBMisses},
		TLBCounters:   [2]uint64{c.dtlb.Hits, c.dtlb.Misses},
		Stats:         *c.st,
	}
	for i := 0; i < c.robCnt; i++ {
		s.ROB = append(s.ROB, *c.robAt(i))
	}
	for i := 0; i < c.lqCnt; i++ {
		s.LQ = append(s.LQ, *c.lqAt(i))
	}
	for i := 0; i < c.sqCnt; i++ {
		s.SQ = append(s.SQ, *c.sqAt(i))
	}
	s.Stats.Cycles, s.Stats.ValidationStall = 0, 0
	return s
}

// Diff names the first field in which s and o differ (for example
// "ROB[3].src1Rob (1, then 0)"), or returns "" when they are equal.
func (s *WakeState) Diff(o *WakeState) string {
	d, _ := firstDiff(reflect.ValueOf(s).Elem(), reflect.ValueOf(o).Elem())
	return strings.TrimPrefix(d, ".")
}

// firstDiff walks a and b in step and reports whether they differ, with
// the path to the first difference. It builds the path only on the way out
// of a difference, so equal values cost no allocation.
func firstDiff(a, b reflect.Value) (string, bool) {
	switch a.Kind() {
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if d, ok := firstDiff(a.Field(i), b.Field(i)); ok {
				return "." + a.Type().Field(i).Name + d, true
			}
		}
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return fmt.Sprintf(" (length %d, then %d)", a.Len(), b.Len()), true
		}
		for i := 0; i < a.Len(); i++ {
			if d, ok := firstDiff(a.Index(i), b.Index(i)); ok {
				return fmt.Sprintf("[%d]%s", i, d), true
			}
		}
	case reflect.Bool:
		if a.Bool() != b.Bool() {
			return fmt.Sprintf(" (%v, then %v)", a.Bool(), b.Bool()), true
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if a.Int() != b.Int() {
			return fmt.Sprintf(" (%d, then %d)", a.Int(), b.Int()), true
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		if a.Uint() != b.Uint() {
			return fmt.Sprintf(" (%d, then %d)", a.Uint(), b.Uint()), true
		}
	case reflect.String:
		if a.String() != b.String() {
			return fmt.Sprintf(" (%q, then %q)", a.String(), b.String()), true
		}
	default:
		panic("core: WakeState holds a field of kind " + a.Kind().String())
	}
	return "", false
}
