package dht

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
)

// TestIDListSortedAndDeduplicated: the wire form of an exclusion set is
// nil when empty, and otherwise every member once, in ascending order,
// whatever order the ids were gathered in; IDSet inverts it.
func TestIDListSortedAndDeduplicated(t *testing.T) {
	for _, tc := range []struct {
		name     string
		in, want []core.ID
	}{
		{"nil", nil, nil},
		{"empty", []core.ID{}, nil},
		{"one", []core.ID{7}, []core.ID{7}},
		{"unsorted", []core.ID{3, 1, 2}, []core.ID{1, 2, 3}},
		{"repeated", []core.ID{5, 5, 1, 5, 1}, []core.ID{1, 5}},
		{"extremes", []core.ID{^core.ID(0), 0, 1 << 63}, []core.ID{0, 1 << 63, ^core.ID(0)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			set := IDSet(tc.in)
			if len(tc.in) == 0 && set != nil {
				t.Errorf("IDSet(%v) = %v, want nil", tc.in, set)
			}
			got := IDList(set)
			if !slices.Equal(got, tc.want) || (tc.want == nil) != (got == nil) {
				t.Errorf("IDList(IDSet(%v)) = %#v, want %#v", tc.in, got, tc.want)
			}
			for _, id := range tc.in {
				if !set[id] {
					t.Errorf("IDSet(%v) lacks %v", tc.in, id)
				}
			}
		})
	}
}

// TestPeerDead: timeouts, refusals and stopped peers mean the peer is
// gone, wrapped or not; a peer's refusal on the merits does not.
func TestPeerDead(t *testing.T) {
	for err, want := range map[error]bool{
		core.ErrTimeout:                        true,
		core.ErrStopped:                        true,
		core.ErrUnreachable:                    true,
		fmt.Errorf("hop: %w", core.ErrTimeout): true,
		core.ErrNotResponsible:                 false,
		core.ErrNotFound:                       false,
		nil:                                    false,
	} {
		if got := PeerDead(err); got != want {
			t.Errorf("PeerDead(%v) = %v, want %v", err, got, want)
		}
	}
}
