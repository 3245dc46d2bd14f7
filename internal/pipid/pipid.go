// Package pipid implements Permutations Induced by a Permutation on the
// Index Digits (PIPID), the family of link permutations from §4 of
// Bermond & Fourneau and from Lenfant & Tahe. A PIPID permutation on
// N = 2^w symbols is determined by a permutation theta of the w bit
// positions of the symbol's binary representation:
//
//	A(x_{w-1}, ..., x_1, x_0) = (x_{theta(w-1)}, ..., x_{theta(1)}, x_{theta(0)})
//
// i.e. output bit j equals input bit theta(j). The perfect shuffle,
// k-subshuffle, k-butterfly and bit reversal are all PIPID; they are the
// building blocks of the six classical multistage interconnection
// networks whose equivalence the paper establishes.
package pipid

import (
	"fmt"
	"math/bits"
	"math/rand/v2"
	"strings"

	"minequiv/internal/bitops"
	"minequiv/internal/perm"
)

// IndexPerm is a permutation theta of bit positions {0..w-1}: Theta[j] is
// the input bit position that output bit j copies.
type IndexPerm struct {
	Theta []int
}

// New validates and wraps a theta slice.
func New(theta []int) (IndexPerm, error) {
	seen := make([]bool, len(theta))
	for j, t := range theta {
		if t < 0 || t >= len(theta) {
			return IndexPerm{}, fmt.Errorf("pipid: theta[%d]=%d out of range [0,%d)", j, t, len(theta))
		}
		if seen[t] {
			return IndexPerm{}, fmt.Errorf("pipid: theta value %d repeated", t)
		}
		seen[t] = true
	}
	cp := make([]int, len(theta))
	copy(cp, theta)
	return IndexPerm{Theta: cp}, nil
}

// MustNew is New that panics on invalid input.
func MustNew(theta []int) IndexPerm {
	ip, err := New(theta)
	if err != nil {
		panic(err)
	}
	return ip
}

// W returns the number of bit positions.
func (ip IndexPerm) W() int { return len(ip.Theta) }

// Apply permutes the bits of x: output bit j is input bit Theta[j].
func (ip IndexPerm) Apply(x uint64) uint64 {
	var y uint64
	for j, t := range ip.Theta {
		y |= bitops.Bit(x, t) << uint(j)
	}
	return y
}

// ToPerm expands the index permutation into the induced permutation on
// all 2^w symbols — the paper's PIPID(2^w) element. A bit permutation
// maps each set bit of x to its own output bit, so x's image is its
// lowest bit's image ORed into the image of x without that bit: one OR
// per symbol instead of a w-step Apply.
func (ip IndexPerm) ToPerm() perm.Perm {
	n := 1 << uint(ip.W())
	p := make(perm.Perm, n)
	img := make([]uint64, ip.W())
	for j, t := range ip.Theta {
		img[t] = 1 << uint(j)
	}
	for x := 1; x < n; x++ {
		p[x] = p[x&(x-1)] | img[bits.TrailingZeros(uint(x))]
	}
	return p
}

// Compose returns the index permutation of "other after ip" on symbols:
// first permute bits by ip, then by other. Because output bit j of the
// composite reads bit Theta_ip[Theta_other[j]] of the original input, the
// underlying theta slices compose in that order.
func (ip IndexPerm) Compose(other IndexPerm) IndexPerm {
	if ip.W() != other.W() {
		panic(fmt.Sprintf("pipid: composing widths %d and %d", ip.W(), other.W()))
	}
	theta := make([]int, ip.W())
	for j := range theta {
		theta[j] = ip.Theta[other.Theta[j]]
	}
	return IndexPerm{Theta: theta}
}

// Inverse returns the inverse index permutation.
func (ip IndexPerm) Inverse() IndexPerm {
	theta := make([]int, ip.W())
	for j, t := range ip.Theta {
		theta[t] = j
	}
	return IndexPerm{Theta: theta}
}

// Equal reports whether two index permutations are identical.
func (ip IndexPerm) Equal(o IndexPerm) bool {
	if ip.W() != o.W() {
		return false
	}
	for i := range ip.Theta {
		if ip.Theta[i] != o.Theta[i] {
			return false
		}
	}
	return true
}

// IsIdentity reports whether theta fixes every position.
func (ip IndexPerm) IsIdentity() bool {
	for j, t := range ip.Theta {
		if j != t {
			return false
		}
	}
	return true
}

// PortSource returns theta^{-1}(0): the output bit position that receives
// input bit 0. In the paper's §4 this is the k such that the switch-port
// bit lands at position k of the next stage's link label; k = 0 produces
// the degenerate double-link stage of Fig 5.
func (ip IndexPerm) PortSource() int {
	for j, t := range ip.Theta {
		if t == 0 {
			return j
		}
	}
	panic("pipid: malformed theta (no source for bit 0)")
}

// String renders theta in one-line notation: "[theta(w-1) ... theta(0)]".
func (ip IndexPerm) String() string {
	var b strings.Builder
	b.WriteByte('[')
	for j := ip.W() - 1; j >= 0; j-- {
		fmt.Fprintf(&b, "%d", ip.Theta[j])
		if j > 0 {
			b.WriteByte(' ')
		}
	}
	b.WriteByte(']')
	return b.String()
}

// Identity returns the identity index permutation on w positions.
func Identity(w int) IndexPerm {
	theta := make([]int, w)
	for i := range theta {
		theta[i] = i
	}
	return IndexPerm{Theta: theta}
}

// PerfectShuffle returns sigma on w bits: a circular left shift of the
// binary representation, sigma(x_{w-1},...,x_0) = (x_{w-2},...,x_0,x_{w-1}).
func PerfectShuffle(w int) IndexPerm {
	theta := make([]int, w)
	for j := range theta {
		theta[j] = ((j - 1) + w) % w
	}
	return IndexPerm{Theta: theta}
}

// InverseShuffle returns sigma^{-1} (circular right shift).
func InverseShuffle(w int) IndexPerm { return PerfectShuffle(w).Inverse() }

// Subshuffle returns sigma_k: the perfect shuffle restricted to the low k
// bits, fixing bits k..w-1.
func Subshuffle(w, k int) IndexPerm {
	if k > w {
		k = w
	}
	theta := make([]int, w)
	for j := range theta {
		if j < k && k > 0 {
			theta[j] = ((j - 1) + k) % k
		} else {
			theta[j] = j
		}
	}
	return IndexPerm{Theta: theta}
}

// InverseSubshuffle returns sigma_k^{-1}.
func InverseSubshuffle(w, k int) IndexPerm { return Subshuffle(w, k).Inverse() }

// Butterfly returns beta_k: the transposition of bit 0 and bit k.
// Butterfly(w, 0) is the identity.
func Butterfly(w, k int) IndexPerm {
	theta := make([]int, w)
	for j := range theta {
		theta[j] = j
	}
	if k > 0 && k < w {
		theta[0], theta[k] = k, 0
	}
	return IndexPerm{Theta: theta}
}

// BitReversal returns rho: bit j moves to position w-1-j.
func BitReversal(w int) IndexPerm {
	theta := make([]int, w)
	for j := range theta {
		theta[j] = w - 1 - j
	}
	return IndexPerm{Theta: theta}
}

// Random returns a uniformly random index permutation on w positions.
func Random(rng *rand.Rand, w int) IndexPerm {
	p := perm.Random(rng, w)
	theta := make([]int, w)
	for j := range theta {
		theta[j] = int(p[j])
	}
	return IndexPerm{Theta: theta}
}

// All enumerates every index permutation on w positions (w! of them), in
// lexicographic order of the theta slice. Intended for exhaustive tests
// with small w.
func All(w int) []IndexPerm {
	var out []IndexPerm
	theta := make([]int, w)
	for i := range theta {
		theta[i] = i
	}
	var rec func(k int)
	rec = func(k int) {
		if k == w {
			cp := make([]int, w)
			copy(cp, theta)
			out = append(out, IndexPerm{Theta: cp})
			return
		}
		for i := k; i < w; i++ {
			theta[k], theta[i] = theta[i], theta[k]
			rec(k + 1)
			theta[k], theta[i] = theta[i], theta[k]
		}
	}
	rec(0)
	return out
}

// Detect decides whether p (a permutation on 2^w symbols) is PIPID, and
// if so recovers theta. It runs in O(2^w) after an O(w) candidate
// extraction.
func Detect(p perm.Perm) (IndexPerm, bool) {
	n := len(p)
	if n == 0 || !bitops.IsPow2(uint64(n)) {
		return IndexPerm{}, false
	}
	w := bitops.Log2(uint64(n))
	if p[0] != 0 {
		return IndexPerm{}, false
	}
	theta := make([]int, w)
	for i := 0; i < w; i++ {
		img := p[1<<uint(i)]
		if img == 0 || img&(img-1) != 0 {
			return IndexPerm{}, false // image of a unit vector must be a unit vector
		}
		j := bitops.Log2(img)
		theta[j] = i
	}
	ip, err := New(theta)
	if err != nil {
		return IndexPerm{}, false
	}
	for x := 0; x < n; x++ {
		if p[x] != ip.Apply(uint64(x)) {
			return IndexPerm{}, false
		}
	}
	return ip, true
}

// BPC is a bit-permute-complement permutation: a PIPID permutation
// followed by XOR with a complement mask. BPC strictly contains PIPID
// (Mask 0) and still induces independent connections, which is the
// natural extension the paper's machinery covers; see conn.FromBPC.
type BPC struct {
	Theta IndexPerm
	Mask  uint64
}

// NewBPC validates the mask width against theta.
func NewBPC(theta IndexPerm, mask uint64) (BPC, error) {
	if mask&^bitops.Mask(theta.W()) != 0 {
		return BPC{}, fmt.Errorf("pipid: BPC mask %#x exceeds %d bits", mask, theta.W())
	}
	return BPC{Theta: theta, Mask: mask}, nil
}

// Apply evaluates the BPC permutation.
func (b BPC) Apply(x uint64) uint64 { return b.Theta.Apply(x) ^ b.Mask }

// ToPerm expands the BPC permutation on all 2^w symbols.
func (b BPC) ToPerm() perm.Perm {
	n := 1 << uint(b.Theta.W())
	p := make(perm.Perm, n)
	for x := 0; x < n; x++ {
		p[x] = b.Apply(uint64(x))
	}
	return p
}

// DetectBPC decides whether p is bit-permute-complement and recovers it.
func DetectBPC(p perm.Perm) (BPC, bool) {
	n := len(p)
	if n == 0 || !bitops.IsPow2(uint64(n)) {
		return BPC{}, false
	}
	w := bitops.Log2(uint64(n))
	mask := p[0]
	theta := make([]int, w)
	for i := 0; i < w; i++ {
		img := p[1<<uint(i)] ^ mask
		if img == 0 || img&(img-1) != 0 {
			return BPC{}, false
		}
		j := bitops.Log2(img)
		theta[j] = i
	}
	ip, err := New(theta)
	if err != nil {
		return BPC{}, false
	}
	b := BPC{Theta: ip, Mask: mask}
	for x := 0; x < n; x++ {
		if p[x] != b.Apply(uint64(x)) {
			return BPC{}, false
		}
	}
	return b, true
}
