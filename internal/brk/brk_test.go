package brk_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/network/simwire"
)

func deploy(t *testing.T, seed int64) *exp.Deployment {
	t.Helper()
	cfg := exp.Table1Deployment(24, seed)
	cfg.Net = simwire.Config{}
	cfg.Replicas = 5
	d := exp.NewDeployment(cfg)
	d.RunFor(time.Minute)
	return d
}

func TestInsertIncrementsVersion(t *testing.T) {
	d := deploy(t, 1)
	d.Do(func() {
		r1, err := d.Peers[0].BRK.Insert(context.Background(), "k", []byte("v1"))
		if err != nil {
			t.Errorf("insert1: %v", err)
			return
		}
		if r1.TS != core.TS(1) {
			t.Errorf("first version = %v", r1.TS)
		}
		r2, err := d.Peers[3].BRK.Insert(context.Background(), "k", []byte("v2"))
		if err != nil {
			t.Errorf("insert2: %v", err)
			return
		}
		if r2.TS != core.TS(2) {
			t.Errorf("second version = %v", r2.TS)
		}
		got, err := d.Peers[7].BRK.Retrieve(context.Background(), "k")
		if err != nil {
			t.Errorf("retrieve: %v", err)
			return
		}
		if string(got.Data) != "v2" || got.TS != core.TS(2) {
			t.Errorf("retrieve = %q v%v", got.Data, got.TS)
		}
	})
}

func TestRetrieveAlwaysProbesAllReplicas(t *testing.T) {
	d := deploy(t, 2)
	d.Do(func() {
		if _, err := d.Peers[0].BRK.Insert(context.Background(), "k", []byte("v")); err != nil {
			t.Errorf("insert: %v", err)
			return
		}
		r, err := d.Peers[5].BRK.Retrieve(context.Background(), "k")
		if err != nil {
			t.Errorf("retrieve: %v", err)
			return
		}
		if r.Probed != 5 {
			t.Errorf("probed %d, BRK must always probe |Hr|=5", r.Probed)
		}
		if r.Current() {
			t.Error("BRK must never prove currency")
		}
	})
}

func TestRetrieveMissingKey(t *testing.T) {
	d := deploy(t, 3)
	d.Do(func() {
		if _, err := d.Peers[0].BRK.Retrieve(context.Background(), "ghost"); !errors.Is(err, core.ErrNotFound) {
			t.Errorf("err = %v", err)
		}
	})
}

// The baseline's documented flaw (§1, §6): two concurrent updates read
// the same highest version and write the same new version, so replicas
// disagree on the data under one version number and currency becomes
// undecidable.
func TestConcurrentUpdatesCollideOnVersion(t *testing.T) {
	d := deploy(t, 4)
	d.Do(func() {
		if _, err := d.Peers[0].BRK.Insert(context.Background(), "flaw", []byte("base")); err != nil {
			t.Errorf("seed insert: %v", err)
		}
	})
	versions := make(chan core.Timestamp, 2)
	d.K.Go(func() {
		if r, err := d.Peers[1].BRK.Insert(context.Background(), "flaw", []byte("writer-A")); err == nil {
			versions <- r.TS
		}
	})
	d.K.Go(func() {
		if r, err := d.Peers[9].BRK.Insert(context.Background(), "flaw", []byte("writer-B")); err == nil {
			versions <- r.TS
		}
	})
	d.RunFor(5 * time.Minute)
	close(versions)
	var got []core.Timestamp
	for v := range versions {
		got = append(got, v)
	}
	if len(got) != 2 {
		t.Fatalf("expected both concurrent inserts to 'succeed', got %d", len(got))
	}
	if got[0] != got[1] {
		t.Fatalf("this schedule should collide versions, got %v and %v", got[0], got[1])
	}
	// Both writers believe they own version 2; which data a reader sees
	// is an accident of replica timing — BRK cannot tell.
	d.Do(func() {
		r, err := d.Peers[4].BRK.Retrieve(context.Background(), "flaw")
		if err != nil {
			t.Errorf("retrieve: %v", err)
			return
		}
		if r.TS != got[0] {
			t.Errorf("retrieved version %v, want the collided %v", r.TS, got[0])
		}
		if s := string(r.Data); s != "writer-A" && s != "writer-B" {
			t.Errorf("retrieved %q", s)
		}
	})
}
