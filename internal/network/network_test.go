package network

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/core"
)

func TestErrorCodecRoundTrip(t *testing.T) {
	cases := []error{
		fmt.Errorf("wrapped: %w", core.ErrNotFound),
		fmt.Errorf("wrapped: %w", core.ErrUnreachable),
		fmt.Errorf("wrapped: %w", core.ErrTimeout),
		fmt.Errorf("wrapped: %w", core.ErrStopped),
		fmt.Errorf("wrapped: %w", core.ErrNoCurrentReplica),
		fmt.Errorf("wrapped: %w", core.ErrNotResponsible),
		fmt.Errorf("wrapped: %w", core.ErrStorage),
	}
	bases := []error{
		core.ErrNotFound, core.ErrUnreachable, core.ErrTimeout,
		core.ErrStopped, core.ErrNoCurrentReplica, core.ErrNotResponsible,
		core.ErrStorage,
	}
	for i, err := range cases {
		code, msg := EncodeError(err)
		if code == "" {
			t.Fatalf("no code for %v", err)
		}
		back := DecodeError(code, msg)
		for j, base := range bases {
			if errors.Is(back, base) != (i == j) {
				t.Fatalf("decoded %v matches base %v incorrectly", back, base)
			}
		}
	}
}

func TestErrorCodecNil(t *testing.T) {
	if code, msg := EncodeError(nil); code != "" || msg != "" {
		t.Fatalf("nil error encoded as %q/%q", code, msg)
	}
	if err := DecodeError("", ""); err != nil {
		t.Fatalf("empty code decoded to %v", err)
	}
}

func TestErrorCodecOpaque(t *testing.T) {
	orig := errors.New("something domain-specific")
	code, msg := EncodeError(orig)
	back := DecodeError(code, msg)
	if back == nil || back.Error() != orig.Error() {
		t.Fatalf("opaque error lost: %v", back)
	}
	for _, base := range []error{core.ErrNotFound, core.ErrTimeout} {
		if errors.Is(back, base) {
			t.Fatalf("opaque error matches %v", base)
		}
	}
}

func TestMeterCounting(t *testing.T) {
	var m Meter
	m.Count(100)
	m.Count(50)
	if m.Msgs != 2 || m.Bytes != 150 {
		t.Fatalf("meter = %+v", m)
	}
	m.Merge(Meter{Msgs: 3, Bytes: 10})
	if m.Msgs != 5 || m.Bytes != 160 {
		t.Fatalf("after merge = %+v", m)
	}
}

func TestNilMeterSafe(t *testing.T) {
	var m *Meter
	m.Count(10) // must not panic
	m.Merge(Meter{Msgs: 1, Bytes: 1})
}

type sized struct{ n int }

func (s sized) WireSize() int { return s.n }

func TestSizeOf(t *testing.T) {
	if got := SizeOf(sized{n: 4096}); got != 4096 {
		t.Fatalf("sized = %d", got)
	}
	if got := SizeOf(struct{ X int }{}); got != DefaultWireSize {
		t.Fatalf("default = %d", got)
	}
}

func TestRegisterMessageIdempotent(t *testing.T) {
	type onceMsg struct{ A int }
	// Registering the same concrete type twice must not panic; only a
	// different type under a taken name does.
	RegisterMessage(onceMsg{})
	RegisterMessage(onceMsg{})
}

// TestTypedRefusesOtherRequests: a Typed handler serves its own request
// type and answers any other, nil included, with ErrUnreachable without
// running.
func TestTypedRefusesOtherRequests(t *testing.T) {
	type req struct{ N int }
	type other struct{ N int }
	ran := 0
	h := Typed(func(r req) (Message, error) {
		ran++
		return r.N + 1, nil
	})
	if resp, err := h("peer", req{N: 41}); err != nil || resp != 42 {
		t.Fatalf("own request answered %v, %v", resp, err)
	}
	for _, bad := range []Message{other{N: 41}, nil, &req{N: 41}} {
		if resp, err := h("peer", bad); !errors.Is(err, core.ErrUnreachable) || resp != nil {
			t.Errorf("%T request answered %v, %v; want an error wrapping ErrUnreachable", bad, resp, err)
		}
	}
	if ran != 1 {
		t.Fatalf("handler ran %d times, want only for its own request", ran)
	}
}

// TestReplyRefusesOtherTypes: Reply passes its own reply type and a
// transport error through, and turns a reply of any other type, nil
// included, into an error wrapping ErrUnreachable.
func TestReplyRefusesOtherTypes(t *testing.T) {
	type resp struct{ N int }
	if r, err := Reply[resp](resp{N: 7}, nil); err != nil || r.N != 7 {
		t.Fatalf("own reply = %v, %v", r, err)
	}
	if _, err := Reply[resp](resp{N: 7}, core.ErrTimeout); !errors.Is(err, core.ErrTimeout) {
		t.Fatalf("transport error became %v", err)
	}
	for _, bad := range []Message{struct{ N int }{N: 7}, nil, &resp{N: 7}} {
		if r, err := Reply[resp](bad, nil); !errors.Is(err, core.ErrUnreachable) || r != (resp{}) {
			t.Errorf("%T reply = %v, %v; want an error wrapping ErrUnreachable", bad, r, err)
		}
	}
}
