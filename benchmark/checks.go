package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"

	"github.com/hpcrepro/pilgrim/internal/core"
)

// checkError marks a wrong output, as opposed to an operation that
// could not complete: both count as failed operations, but only a
// wrong output makes the run incorrect.
type checkError struct{ msg string }

func (e *checkError) Error() string { return e.msg }

func checkErrorf(format string, args ...any) error {
	return &checkError{fmt.Sprintf(format, args...)}
}

func isCheckError(err error) bool {
	var ce *checkError
	return errors.As(err, &ce)
}

// checkCalls compares one rank's decoded stream with the capture: the
// call count and the hash of the FuncID sequence.
func checkCalls(ref *reference, rank int, calls []core.DecodedCall) error {
	if int64(len(calls)) != ref.counts[rank] {
		return checkErrorf("rank %d decodes to %d calls, the capture saw %d", rank, len(calls), ref.counts[rank])
	}
	h := uint64(fnvOffset)
	for i := range calls {
		h = hashFunc(h, calls[i].Func)
	}
	if h != ref.hashes[rank] {
		return checkErrorf("rank %d decodes to a different FuncID sequence than the capture", rank)
	}
	return nil
}

// checkDurations compares a fully captured rank's reconstructed
// durations with the captured virtual durations: each must lie within
// relative error base−1.
func checkDurations(s *stream, calls []core.DecodedCall, base float64) error {
	if len(calls) != s.calls {
		return checkErrorf("rank %d decodes to %d calls, the capture holds %d", s.rank, len(calls), s.calls)
	}
	bound := base - 1 + 1e-9
	i := 0
	for k := range s.events {
		e := &s.events[k]
		if e.kind != evPost {
			continue
		}
		want := float64(e.rec.TEnd - e.rec.TStart)
		got := float64(calls[i].TEnd - calls[i].TStart)
		if rel := relErr(got, want); rel > bound {
			return checkErrorf("rank %d call %d: reconstructed duration %v vs captured %v (error %.4f > %.4f)",
				s.rank, i, got, want, rel, bound)
		}
		i++
	}
	return nil
}

func relErr(got, want float64) float64 {
	if want == 0 {
		if got == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(got-want) / want
}

// checkIdentical requires a trace to be byte-identical to the
// in-memory finalize of the same snapshots.
func checkIdentical(what string, got, want []byte) error {
	if !bytes.Equal(got, want) {
		return checkErrorf("%s trace (%d bytes) differs from the in-memory finalize (%d bytes)", what, len(got), len(want))
	}
	return nil
}
