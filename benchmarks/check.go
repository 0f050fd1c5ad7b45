package main

import (
	"fmt"
	"sync"

	dcdht "repro"
)

// replicas is |Hr| of every ring the benchmark forms; a successful put
// must report exactly this many stored replicas.
const replicas = 10

// readRec is a read whose timestamp no acknowledged put carried yet when
// it returned (the put was still in flight); it waits for the end-of-run
// check.
type readRec struct {
	key int
	ts  dcdht.Timestamp
	id  writeID
}

// checker verifies the program's outputs. Clients report every put
// acknowledgement and every read result; violations are collected, not
// fatal, so one run reports all of them.
//
// Checked as results arrive: Stored == |Hr| on every acknowledged put; a
// put's timestamp is new for its key and above the same writer's
// previous one on that key; a successful Current read never returns a
// timestamp below the last put of that key acknowledged before the read
// was issued (through a gateway: the last such put by the reading client
// itself, which is what the gateway promises a session - a read may
// coalesce onto a flight that began before another client's put); the payload a read returned is the one the put carrying
// its timestamp wrote for that key. A read that overtook its put's
// acknowledgement is parked and checked at the end (verifyParked), once
// every acknowledgement is known.
type checker struct {
	// perClient narrows the Current-read floor to the reader's own puts.
	perClient bool

	mu         sync.Mutex
	lastAcked  []dcdht.Timestamp             // per key: highest acknowledged put
	puts       []map[dcdht.Timestamp]writeID // per key: acknowledged puts
	lastWriter []map[int]dcdht.Timestamp     // per key: each writer's last timestamp
	unacked    []int                         // per key: puts that failed; they may still have stored data
	parked     []readRec
	violations []string
}

func newChecker(keys int, perClient bool) *checker {
	c := &checker{
		perClient:  perClient,
		lastAcked:  make([]dcdht.Timestamp, keys),
		puts:       make([]map[dcdht.Timestamp]writeID, keys),
		lastWriter: make([]map[int]dcdht.Timestamp, keys),
		unacked:    make([]int, keys),
	}
	for i := range c.puts {
		c.puts[i] = map[dcdht.Timestamp]writeID{}
		c.lastWriter[i] = map[int]dcdht.Timestamp{}
	}
	return c
}

// maxViolations bounds the report; the count past it is still exact.
const maxViolations = 20

func (c *checker) violate(format string, args ...any) {
	if len(c.violations) < maxViolations {
		c.violations = append(c.violations, fmt.Sprintf(format, args...))
	} else if len(c.violations) == maxViolations {
		c.violations = append(c.violations, "... more violations not listed")
	}
}

// putAcked records a successful put and checks its result.
func (c *checker) putAcked(key int, id writeID, res dcdht.Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if res.Stored != replicas {
		c.violate("put %v of key %d stored %d replicas, want %d", id, key, res.Stored, replicas)
	}
	if prev, dup := c.puts[key][res.TS]; dup {
		c.violate("put %v of key %d got timestamp %v already granted to put %v", id, key, res.TS, prev)
	}
	if last, ok := c.lastWriter[key][id.Writer]; ok && !last.Less(res.TS) {
		c.violate("put %v of key %d got timestamp %v, not above the writer's previous %v", id, key, res.TS, last)
	}
	c.puts[key][res.TS] = id
	c.lastWriter[key][id.Writer] = res.TS
	c.lastAcked[key] = c.lastAcked[key].Max(res.TS)
}

// putFailed notes that a put of key may or may not have taken effect.
func (c *checker) putFailed(key int) {
	c.mu.Lock()
	c.unacked[key]++
	c.mu.Unlock()
}

// floor is the highest acknowledged put of key right now (by reader
// alone when perClient); a Current read issued by reader after this call
// must not return less.
func (c *checker) floor(key, reader int) dcdht.Timestamp {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.perClient {
		return c.lastWriter[key][reader]
	}
	return c.lastAcked[key]
}

// currentRead checks a successful Current read against the floor taken
// before it was issued.
func (c *checker) currentRead(key int, floor dcdht.Timestamp, res dcdht.Result) {
	if res.TS.Less(floor) {
		c.mu.Lock()
		c.violate("current read of key %d returned %v, below %v acknowledged before it was issued", key, res.TS, floor)
		c.mu.Unlock()
	}
}

// readReturned checks the payload of a read that returned data.
func (c *checker) readReturned(key int, res dcdht.Result) {
	id, err := parsePayload(keyName(key), res.Data)
	c.mu.Lock()
	defer c.mu.Unlock()
	if err != nil {
		c.violate("read of key %d at %v: %v", key, res.TS, err)
		return
	}
	rec := readRec{key: key, ts: res.TS, id: id}
	if _, known := c.puts[key][res.TS]; !known {
		c.parked = append(c.parked, rec)
		return
	}
	c.checkRead(rec)
}

// checkRead requires that r returned the payload of the acknowledged put
// carrying its timestamp. A timestamp with no acknowledged put is
// tolerated only on a key with a failed put, which may have stored
// replicas before failing. The caller holds c.mu.
func (c *checker) checkRead(r readRec) {
	want, ok := c.puts[r.key][r.ts]
	switch {
	case !ok && c.unacked[r.key] == 0:
		c.violate("read of key %d returned timestamp %v that no put was granted", r.key, r.ts)
	case ok && want != r.id:
		c.violate("read of key %d at %v returned the payload of put %v, want %v", r.key, r.ts, r.id, want)
	}
}

// verifyParked runs once all clients have stopped.
func (c *checker) verifyParked() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, r := range c.parked {
		c.checkRead(r)
	}
	c.parked = nil
}
