// Package fixture exercises detsource inside a scoped package path.
package fixture

import (
	crand "crypto/rand"
	"math/rand"
	"time"
)

// Wall reads the wall clock with no justification.
func Wall() time.Time {
	return time.Now() // want "time.Now reads the wall clock"
}

// Elapsed uses the derived wall-clock helpers.
func Elapsed(t time.Time) time.Duration {
	return time.Since(t) // want "time.Since reads the wall clock"
}

// Annotated feeds a documented timing field kept out of the trace.
func Annotated() float64 {
	start := time.Now() //lint:deterministic feeds Outcome.EncodeSec, which never reaches the trace
	_ = start
	return 0
}

// GlobalRand draws from the globally seeded source.
func GlobalRand() int {
	return rand.Intn(10) // want "math/rand.Intn draws from the global"
}

// Seeded builds an explicit generator: constructors and methods are fine.
func Seeded(seed int64) int {
	r := rand.New(rand.NewSource(seed))
	return r.Intn(10)
}

// Entropy reads the system entropy pool.
func Entropy(b []byte) {
	crand.Read(b) // want "crypto/rand.Read draws system entropy"
}
