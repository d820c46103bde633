package main

import (
	"crypto/ed25519"
	"crypto/sha256"
	"time"
)

// The calibration kernel is a fixed piece of standard-library work with
// the instruction mix of a round: Ed25519 verification (the VRF) and
// SHA-256 (the PoW). It allocates nothing and never changes with the
// repository, so how long it takes says how fast the host is running
// right now. The sandbox is a few cores of a shared host whose speed
// drops by 25-35% for spells of ten seconds to minutes; the kernel slows
// with the rounds beside it (and the process's CPU time with its wall
// time, so it is speed, not preemption). Every timed interval of an
// end-to-end metric is therefore paired with the kernel run just before
// and just after it and reported at the reference speed.
var (
	calibPub ed25519.PublicKey
	calibMsg = []byte("cycledger bench calibration kernel")
	calibSig []byte
)

func init() {
	seed := sha256.Sum256(calibMsg)
	priv := ed25519.NewKeyFromSeed(seed[:])
	calibPub = priv.Public().(ed25519.PublicKey)
	calibSig = ed25519.Sign(priv, calibMsg)
}

// calibRefMs is what the kernel takes on the reference host when it is
// quiet. On that host a normalised time is the wall-clock time of a quiet
// spell; on another host it is wall-clock scaled by one constant, which
// a comparison of two commits on one host does not see.
const calibRefMs = 1.05

// calibrate runs the kernel once and returns its time in ms.
func calibrate() float64 {
	start := time.Now()
	ok := true
	for i := 0; i < 16; i++ {
		ok = ed25519.Verify(calibPub, calibMsg, calibSig) && ok
	}
	h := sha256.Sum256(calibMsg)
	for i := 0; i < 2048; i++ {
		h = sha256.Sum256(h[:])
	}
	d := time.Since(start)
	if !ok || h == [sha256.Size]byte{} {
		panic("calibration kernel computed the wrong thing")
	}
	return ms(d)
}

// atRefSpeed scales an interval to the reference speed, given the kernel
// times measured just before and just after it.
func atRefSpeed(interval, kernelBefore, kernelAfter float64) float64 {
	return interval * calibRefMs / ((kernelBefore + kernelAfter) / 2)
}
