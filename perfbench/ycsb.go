package main

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
)

// zipfTheta is YCSB's default request skew.
const zipfTheta = 0.99

// zipf draws ranks in [0, n) with YCSB's zipfian distribution
// (Gray et al., "Quickly generating billion-record synthetic
// databases"), then scrambles each rank with FNV-1a so the hot keys are
// spread over the keyspace instead of clustered at its start, as YCSB's
// ScrambledZipfianGenerator does. It holds only constants, so sessions
// share one.
type zipf struct {
	n                        int
	alpha, zetan, eta, zeta2 float64
	scrambled                []int32 // rank -> key id
}

func newZipf(n int, theta float64) *zipf {
	z := &zipf{n: n}
	for i := 1; i <= n; i++ {
		z.zetan += 1 / math.Pow(float64(i), theta)
	}
	z.zeta2 = 1 + math.Pow(0.5, theta)
	z.alpha = 1 / (1 - theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - z.zeta2/z.zetan)
	z.scrambled = make([]int32, n)
	var b [8]byte
	for r := range z.scrambled {
		binary.LittleEndian.PutUint64(b[:], uint64(r))
		h := fnv.New64a()
		h.Write(b[:])
		z.scrambled[r] = int32(h.Sum64() % uint64(n))
	}
	return z
}

// key maps a uniform draw u in [0, 1) to a key id.
func (z *zipf) key(u float64) int {
	uz := u * z.zetan
	var rank int
	switch {
	case uz < 1:
		rank = 0
	case uz < z.zeta2:
		rank = 1
	default:
		rank = int(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
		if rank >= z.n {
			rank = z.n - 1
		}
	}
	return int(z.scrambled[rank])
}

// op is one generated client operation.
type op struct {
	put bool
	key int
}

// opStream is one session's closed-loop operation sequence. It is a
// pure function of (seed, session): the program under test only ever
// sees the ops it yields. Writes are partitioned between sessions by
// key parity, so each session's write ledger is authoritative for its
// keys; reads roam the whole keyspace.
type opStream struct {
	rng      *rand.Rand
	z        *zipf
	readFrac float64
	session  int
	sessions int
}

func newOpStream(z *zipf, readFrac float64, seed int64, session, sessions int) *opStream {
	return &opStream{
		rng:      rand.New(rand.NewSource(seed*1_000_003 + int64(session)*7919 + 1)),
		z:        z,
		readFrac: readFrac,
		session:  session,
		sessions: sessions,
	}
}

func (s *opStream) next() op {
	put := s.rng.Float64() >= s.readFrac
	k := s.z.key(s.rng.Float64())
	if put {
		k = writeKey(k, s.session, s.sessions, s.z.n)
	}
	return op{put: put, key: k}
}

// writeKey moves k to the nearest key owned by session.
func writeKey(k, session, sessions, n int) int {
	k = k - k%sessions + session
	if k >= n {
		k -= sessions
	}
	return k
}

// keyName is the stored key for id: "user" and eight digits.
func keyName(id int) []byte {
	b := []byte("user00000000")
	putDigits(b[4:], uint64(id))
	return b
}

// Values carry their key id, writer and write sequence so every read
// can be checked: "k<8-digit id> s<session> v<12-digit seq> " padded
// with '.' to the value size. Preloaded values have session 'p' and
// seq 0.
const valueHeader = 1 + 8 + 2 + 1 + 2 + 12 + 1

func fillValue(buf []byte, id int, session byte, seq uint64) {
	copy(buf, "k00000000 s? v000000000000 ")
	putDigits(buf[1:9], uint64(id))
	buf[11] = session
	putDigits(buf[14:26], seq)
	for i := valueHeader; i < len(buf); i++ {
		buf[i] = '.'
	}
}

func putDigits(dst []byte, v uint64) {
	for i := len(dst) - 1; i >= 0; i-- {
		dst[i] = byte('0' + v%10)
		v /= 10
	}
}

// valueHasKey reports whether v was written for key id.
func valueHasKey(v []byte, id int) bool {
	if len(v) < valueHeader || v[0] != 'k' {
		return false
	}
	var d [8]byte
	putDigits(d[:], uint64(id))
	return string(v[1:9]) == string(d[:])
}
