package network

import (
	"context"
	"sync"
	"testing"
)

// TestMeterContextRoundTrip covers the context plumbing every
// transport relies on: WithMeter attaches, MeterFrom retrieves, nil
// attaches nothing, and an unmetered context yields a nil meter whose
// methods are still safe to call.
func TestMeterContextRoundTrip(t *testing.T) {
	ctx := context.Background()
	if m := MeterFrom(ctx); m != nil {
		t.Fatalf("unmetered context returned %+v", m)
	}
	if got := WithMeter(ctx, nil); got != ctx {
		t.Fatal("WithMeter(nil) must return ctx unchanged")
	}
	var m Meter
	ctx = WithMeter(ctx, &m)
	if MeterFrom(ctx) != &m {
		t.Fatal("MeterFrom did not return the attached meter")
	}
	MeterFrom(ctx).Count(100)
	if m.Msgs != 1 || m.Bytes != 100 {
		t.Fatalf("charge through context: got %+v", m)
	}
}

// TestMeterSurvivesContextLayers asserts the meter is visible through
// later context derivations — values, cancellation — exactly as the
// protocol stack layers them (operation entry attaches the meter; the
// lookup and probe layers derive timeout contexts beneath it).
func TestMeterSurvivesContextLayers(t *testing.T) {
	var m Meter
	ctx := WithMeter(context.Background(), &m)
	type otherKey struct{}
	ctx = context.WithValue(ctx, otherKey{}, "unrelated")
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	MeterFrom(ctx).Count(7)
	if m.Msgs != 1 || m.Bytes != 7 {
		t.Fatalf("charge through derived context: got %+v", m)
	}
}

// TestMeterNestedShadowing: attaching an inner meter (one logical
// sub-operation) shadows the outer one — the inner operation's costs
// must not leak into the parent until the caller merges explicitly.
func TestMeterNestedShadowing(t *testing.T) {
	var outer, inner Meter
	ctx := WithMeter(context.Background(), &outer)
	sub := WithMeter(ctx, &inner)
	MeterFrom(sub).Count(10)
	MeterFrom(sub).Count(20)
	if outer.Msgs != 0 || outer.Bytes != 0 {
		t.Fatalf("inner charges leaked to outer: %+v", outer)
	}
	if inner.Msgs != 2 || inner.Bytes != 30 {
		t.Fatalf("inner meter: got %+v", inner)
	}
	// The parent absorbs the sub-operation when it chooses to.
	outer.Merge(inner)
	if outer.Msgs != 2 || outer.Bytes != 30 {
		t.Fatalf("merge: got %+v", outer)
	}
	// The original context still charges the outer meter.
	MeterFrom(ctx).Count(5)
	if outer.Msgs != 3 || outer.Bytes != 35 {
		t.Fatalf("outer meter after merge + charge: got %+v", outer)
	}
}

// TestMeterFanOutMerge is the PutMulti pattern: Meter is deliberately
// unsynchronized (one logical operation, one activity), so a fan-out
// must give every branch its own meter context and fold the counts
// after the join. This test runs the pattern under the race detector —
// per-branch meters, concurrent charging, merge at the barrier — and
// checks the totals are exact.
func TestMeterFanOutMerge(t *testing.T) {
	const branches = 16
	const chargesPer = 50

	var parent Meter
	ctx := WithMeter(context.Background(), &parent)

	subs := make([]Meter, branches)
	var wg sync.WaitGroup
	for i := 0; i < branches; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Each branch derives its own metered context from the
			// parent's, exactly like a BRK PutMulti issuing one Put per key.
			bctx := WithMeter(ctx, &subs[i])
			for j := 0; j < chargesPer; j++ {
				MeterFrom(bctx).Count(8)
			}
		}(i)
	}
	wg.Wait()
	for i := range subs {
		parent.Merge(subs[i])
	}
	wantMsgs := branches * chargesPer
	wantBytes := wantMsgs * 8
	if parent.Msgs != wantMsgs || parent.Bytes != wantBytes {
		t.Fatalf("fan-out totals: got %+v, want %d msgs / %d bytes",
			parent, wantMsgs, wantBytes)
	}
}
