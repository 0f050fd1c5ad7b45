package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"strconv"
	"time"

	dcdht "repro"
	"repro/internal/dht"
)

const (
	keyPrefix   = "bk-"
	payloadSize = 1000 // Table 1
	// boundedStaleness is the bound of the Bounded reads on mixed-gateway.
	boundedStaleness = time.Second
)

// opKind distinguishes reads from writes; it indexes per-kind tables.
type opKind uint8

const (
	opGet opKind = iota
	opPut
)

func (k opKind) String() string {
	if k == opPut {
		return "put"
	}
	return "get"
}

// genOp is one generated operation.
type genOp struct {
	Seq   int // position in the issuing client's stream
	Kind  opKind
	Key   int
	Level dht.Level // reads only
}

// streamSpec describes one workload's op mix; the program under test
// only ever sees the ops generated from it.
type streamSpec struct {
	zipf bool // Zipf s = 1.1 over the keys; uniform otherwise
	keys int
	// putEvery makes every putEvery-th op a Put: 0 never, 1 always, 5 one
	// in five. The mix is positional, not drawn, so that it is exact in a
	// stream of any length: sim-wan's 300 ops would otherwise carry 52 to
	// 74 puts depending on the seed, and a put costs six gets there.
	putEvery int
	// relaxed cycles reads through Current, Bounded and Eventual.
	relaxed bool
}

// opStream is one client's deterministic op sequence: (seed, round,
// client) fixes every key, and position fixes kind and level, whatever the
// interleaving with other clients turns out to be. Keys are the only
// thing a seed changes.
type opStream struct {
	sp     streamSpec
	rng    *rand.Rand
	zipf   *rand.Zipf
	client int
	seq    int
	reads  int
	// session is set when the client issues through a gateway: a Session
	// is how an application keeps read-your-writes across the gateway's
	// coalescing (docs/GATEWAY.md).
	session *dcdht.Session
}

// newOpStream returns the stream of one client in one round of a run.
func newOpStream(sp streamSpec, seed int64, round, client int) *opStream {
	rng := rand.New(rand.NewSource(seed*1000003 + int64(round)*1009 + int64(client)))
	return &opStream{
		sp:     sp,
		rng:    rng,
		zipf:   rand.NewZipf(rng, 1.1, 1, uint64(sp.keys-1)),
		client: client,
	}
}

func (s *opStream) next() genOp {
	op := genOp{Seq: s.seq}
	s.seq++
	if s.sp.zipf {
		op.Key = int(s.zipf.Uint64())
	} else {
		op.Key = s.rng.Intn(s.sp.keys)
	}
	// Clients are offset so that their puts do not fall in step.
	if e := s.sp.putEvery; e > 0 && (op.Seq+2*s.client)%e == e-1 {
		op.Kind = opPut
		return op
	}
	if s.sp.relaxed {
		op.Level = dht.Level(s.reads % 3)
	}
	s.reads++
	return op
}

func keyName(i int) dcdht.Key { return dcdht.Key(fmt.Sprintf("%s%04d", keyPrefix, i)) }

// filler pads payloads; its offset depends on the writer and sequence
// number so a payload cut from two writes would not verify.
var filler = func() []byte {
	b := make([]byte, payloadSize+256)
	for i := range b {
		b[i] = byte('a' + i%23)
	}
	return b
}()

// writeID names one put: which writer issued it and its position in that
// writer's stream.
type writeID struct {
	Writer int
	Seq    int
}

// makePayload builds the 1000-byte value of a put: a header naming the
// key and the write, then writer- and sequence-dependent filler.
func makePayload(key dcdht.Key, id writeID) []byte {
	b := make([]byte, 0, payloadSize)
	b = append(b, key...)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(id.Writer), 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(id.Seq), 10)
	b = append(b, '|')
	off := (id.Writer*31 + id.Seq) & 0xff
	return append(b, filler[off:off+payloadSize-len(b)]...)
}

// parsePayload checks that data is a well-formed payload for key and
// returns the write it came from.
func parsePayload(key dcdht.Key, data []byte) (writeID, error) {
	if len(data) != payloadSize {
		return writeID{}, fmt.Errorf("payload of %d bytes, want %d", len(data), payloadSize)
	}
	parts := bytes.SplitN(data, []byte{'|'}, 4)
	if len(parts) != 4 {
		return writeID{}, fmt.Errorf("payload header malformed: %q", data[:32])
	}
	if string(parts[0]) != string(key) {
		return writeID{}, fmt.Errorf("payload written for key %q", parts[0])
	}
	w, err1 := strconv.Atoi(string(parts[1]))
	s, err2 := strconv.Atoi(string(parts[2]))
	if err1 != nil || err2 != nil {
		return writeID{}, fmt.Errorf("payload header malformed: %q", data[:32])
	}
	id := writeID{w, s}
	if !bytes.Equal(data, makePayload(key, id)) {
		return writeID{}, fmt.Errorf("payload body does not match its header %v", id)
	}
	return id, nil
}

var (
	// Current is spelled out so that a session read stays a KTS-proven
	// read; without an explicit level a session floor selects the
	// floor-first fast path.
	optsCurrent  = []dcdht.OpOption{dcdht.WithConsistency(dcdht.Current)}
	optsBounded  = []dcdht.OpOption{dcdht.WithConsistency(dcdht.Bounded(boundedStaleness))}
	optsEventual = []dcdht.OpOption{dcdht.WithConsistency(dcdht.Eventual)}
)

// levelOptions maps a generated read level to the public option.
func levelOptions(l dht.Level) []dcdht.OpOption {
	switch l {
	case dht.LevelBounded:
		return optsBounded
	case dht.LevelEventual:
		return optsEventual
	}
	return optsCurrent
}
