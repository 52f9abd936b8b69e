package workload

// Scenario families generalize the fixed kernel registry into a
// parameterized, seed-replicated workload population: each family is a
// program *generator* with knobs (footprint, stride, parallelism,
// payload depth, branch entropy, phase length) and a seed that varies
// data layouts, hash constants and branch-feeding data. The scenario
// matrix campaign (ltp.NewMatrixSweep) crosses families × configurations ×
// seeds and reports mean ± CI instead of single-sample points.
//
// Families live in their own registry, separate from All(): the fixed
// kernels remain the paper-figure population (their MLP classification
// and goldens depend on the exact 14-kernel set), while families are
// the scaling population every campaign PR grows.

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"ltp/internal/isa"
	"ltp/internal/prog"
)

// Knobs parameterizes a scenario family. The zero value of any field
// means "use the family default"; fields are interpreted per family
// (see each family's About).
type Knobs struct {
	// FootprintWords is the full-scale working set in 8-byte words
	// (scaled by the run's Scale, rounded to a power of two).
	FootprintWords int
	// Stride is the distance in words between consecutive streamed
	// touches (1 = sequential).
	Stride int
	// Chains is the number of independent dependence chains (the MLP
	// ceiling for chase-style families; the consumer lag for prodcons).
	Chains int
	// PayloadOps is the number of dependent ALU operations executed on
	// each loaded element before it retires.
	PayloadOps int
	// BranchEntropy in (0, 0.5] sets how unpredictable the data-
	// dependent branches are: 0.5 = coin flip. Zero falls back to the
	// family default; pass a negative value for fully predictable
	// branches (entropy 0).
	BranchEntropy float64
	// PhaseLen is the iteration count of one phase for phased families.
	PhaseLen int
}

// merged fills zero fields of k from the family defaults.
func (k Knobs) merged(def Knobs) Knobs {
	if k.FootprintWords == 0 {
		k.FootprintWords = def.FootprintWords
	}
	if k.Stride == 0 {
		k.Stride = def.Stride
	}
	if k.Chains == 0 {
		k.Chains = def.Chains
	}
	if k.PayloadOps == 0 {
		k.PayloadOps = def.PayloadOps
	}
	if k.BranchEntropy == 0 {
		k.BranchEntropy = def.BranchEntropy
	} else if k.BranchEntropy < 0 {
		k.BranchEntropy = 0
	}
	if k.PhaseLen == 0 {
		k.PhaseLen = def.PhaseLen
	}
	return k
}

// Family is one parameterized scenario generator.
type Family struct {
	// Name identifies the family (unique across the family registry).
	Name string
	// About describes the scenario shape and how the knobs apply.
	About string
	// Hint is the intended MLP class of the default parameterization.
	Hint Class
	// Defaults holds the knob values used when the caller leaves a
	// field zero.
	Defaults Knobs
	// Generate builds the program for fully-resolved knobs. seed
	// varies data layouts and constants; equal (knobs, scale, seed)
	// always generates an identical program.
	Generate func(k Knobs, scale float64, seed int64) *prog.Program
}

// Build resolves knobs (nil = all defaults) and generates the program.
func (f Family) Build(k *Knobs, scale float64, seed int64) *prog.Program {
	return f.Generate(f.Resolve(k), scale, seed)
}

// Resolve returns the fully resolved knobs Build would generate with:
// nil or zero fields replaced by the family defaults, negative
// BranchEntropy clamped to 0. Two knob values with equal Resolve
// results generate identical programs, which is what the campaign
// service's canonical request hashing (ltp.RunSpec.Canonical) relies
// on.
func (f Family) Resolve(k *Knobs) Knobs {
	knobs := Knobs{}
	if k != nil {
		knobs = *k
	}
	return knobs.merged(f.Defaults)
}

var familyRegistry []Family

func registerFamily(f Family) { familyRegistry = append(familyRegistry, f) }

// Families returns every scenario family, sorted by name.
func Families() []Family {
	out := make([]Family, len(familyRegistry))
	copy(out, familyRegistry)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// FamilyByName returns the named scenario family.
func FamilyByName(name string) (Family, error) {
	for _, f := range familyRegistry {
		if f.Name == name {
			return f, nil
		}
	}
	return Family{}, fmt.Errorf("workload: unknown scenario family %q", name)
}

// FamilyNames returns all family names sorted.
func FamilyNames() []string {
	fams := Families()
	out := make([]string, len(fams))
	for i, f := range fams {
		out[i] = f.Name
	}
	return out
}

// seedRNG derives a per-(family, purpose) random stream from the run
// seed. splitmix-style mixing keeps adjacent seeds uncorrelated.
func seedRNG(seed, salt int64) *rand.Rand {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(salt)*0xBF58476D1CE4E5B9
	z ^= z >> 30
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return rand.New(rand.NewSource(int64(z)))
}

// seedConst derives a nonzero odd per-seed constant (LCG/hash starts).
func seedConst(seed, salt int64) int64 {
	r := seedRNG(seed, salt)
	return r.Int63() | 1
}

// payloadChain emits n dependent ALU operations consuming src, then
// folds the chain tail into acc. scratchA/scratchB alternate as the
// chain register; mulK must hold a small multiplier constant.
func payloadChain(b *prog.Builder, src, scratchA, scratchB, acc, mulK isa.Reg, n int) {
	cur := src
	for j := 0; j < n; j++ {
		dst := scratchA
		if cur == scratchA {
			dst = scratchB
		}
		switch j % 3 {
		case 0:
			b.Mul(dst, cur, mulK)
		case 1:
			b.Add(dst, cur, src)
		case 2:
			b.Andi(dst, cur, 0xFFFF)
		}
		cur = dst
	}
	b.Add(acc, acc, cur)
}

func init() {
	registerFamily(Family{
		Name: "ptrchase",
		About: "Chains independent pointer chains over seeded random cycles; " +
			"Chains bounds MLP, FootprintWords sizes each chain, PayloadOps adds dependent work per node",
		Hint:     Sensitive,
		Defaults: Knobs{FootprintWords: 1 << 17, Chains: 8, PayloadOps: 3},
		Generate: genPtrChase,
	})
	registerFamily(Family{
		Name: "gemmblock",
		About: "blocked GEMM-like FMA over a streamed A row and a strided B column walk; " +
			"FootprintWords sizes each matrix, Stride is the B walk distance in words",
		Hint:     Insensitive,
		Defaults: Knobs{FootprintWords: 1 << 18, Stride: 64},
		Generate: genGEMMBlock,
	})
	registerFamily(Family{
		Name: "hashjoin",
		About: "hash-probe join: seeded multiplicative hash, table gather, data-dependent match branch; " +
			"FootprintWords sizes the table, BranchEntropy sets match-branch predictability, PayloadOps per probe",
		Hint:     Sensitive,
		Defaults: Knobs{FootprintWords: 1 << 18, PayloadOps: 2, BranchEntropy: 0.25},
		Generate: genHashJoin,
	})
	registerFamily(Family{
		Name: "prodcons",
		About: "producer-consumer ring: streaming stores ahead, dependent loads Chains elements behind " +
			"(store→load forwarding + SQ pressure); FootprintWords sizes the ring, Stride the advance",
		Hint:     Sensitive,
		Defaults: Knobs{FootprintWords: 1 << 19, Stride: 1, Chains: 64, PayloadOps: 2},
		Generate: genProdCons,
	})
	registerFamily(Family{
		Name: "branchy",
		About: "table-driven state machine over a seeded L1-resident input stream with two data-dependent " +
			"branches per step; BranchEntropy sets input randomness, FootprintWords the input stream length",
		Hint:     Insensitive,
		Defaults: Knobs{FootprintWords: 1 << 12, BranchEntropy: 0.25},
		Generate: genBranchy,
	})
	registerFamily(Family{
		Name: "memhog",
		About: "bandwidth hog: line-stride streaming loads plus interleaved dirty stores over a " +
			"footprint far beyond the LLC; Stride is the walk distance in words, PayloadOps per line. " +
			"Designed as a co-runner that saturates shared MSHRs and DRAM banks",
		Hint:     Sensitive,
		Defaults: Knobs{FootprintWords: 1 << 21, Stride: 8, PayloadOps: 1},
		Generate: genMemHog,
	})
	registerFamily(Family{
		Name: "phased",
		About: "alternating ILP and MLP phases: PhaseLen FP-chain iterations, then PhaseLen/4 seeded random " +
			"gathers over FootprintWords with PayloadOps dependent work (exercises the DRAM-timer monitor)",
		Hint:     Sensitive,
		Defaults: Knobs{FootprintWords: 1 << 20, PhaseLen: 1600, PayloadOps: 2},
		Generate: genPhased,
	})
}

// genPtrChase generalizes the fixed "chains" kernel: a knob-controlled
// number of chains, each a seeded random cycle.
func genPtrChase(k Knobs, scale float64, seed int64) *prog.Program {
	chains := k.Chains
	if chains < 1 {
		chains = 1
	}
	if chains > 12 {
		chains = 12
	}
	nodes := scaleWords(k.FootprintWords, scale, 1<<12)
	const nodeBytes = 16

	chainBase := func(c int) uint64 { return baseD + uint64(c)*0x1000_0000 }
	rV, rWa, rWb, rAcc := isa.R(20), isa.R(21), isa.R(22), isa.R(23)
	rThree, rCnt := isa.R(24), isa.R(25)

	b := prog.NewBuilder(fmt.Sprintf("ptrchase/c%d", chains))
	for c := 0; c < chains; c++ {
		b.SetReg(isa.R(1+c), int64(chainBase(c)))
	}
	b.SetReg(rThree, 3)
	b.SetReg(rCnt, forever)
	b.InitWith(func(m *prog.Memory) {
		for c := 0; c < chains; c++ {
			rng := seedRNG(seed, int64(c)+1)
			base := chainBase(c)
			perm := rng.Perm(nodes)
			for i := 0; i < nodes; i++ {
				from := base + uint64(perm[i])*nodeBytes
				to := base + uint64(perm[(i+1)%nodes])*nodeBytes
				m.Write(from, int64(to))
				m.Write(from+8, int64(rng.Intn(1000)))
			}
		}
	})
	b.Label("loop")
	for c := 0; c < chains; c++ {
		rP := isa.R(1 + c)
		b.Ld(rP, rP, 0) // chase load: enables the next miss
		b.Ld(rV, rP, 8) // payload word (same line)
		payloadChain(b, rV, rWa, rWb, rAcc, rThree, k.PayloadOps)
	}
	b.Addi(rCnt, rCnt, -1).
		Br(isa.CondNE, rCnt, "loop").
		Jmp("loop")
	return b.Build()
}

// genGEMMBlock is the compute-dense family: two FMA accumulator chains
// over a streamed A row and a strided B column walk. The seed phases
// the walks differently so replicated runs sample different cache-set
// alignments.
func genGEMMBlock(k Knobs, scale float64, seed int64) *prog.Program {
	words := scaleWords(k.FootprintWords, scale, 1<<14)
	stride := k.Stride
	if stride < 1 {
		stride = 1
	}
	mask := int64(words-1) << 3

	rKA, rKB, rAddr := isa.R(1), isa.R(2), isa.R(3)
	rBaseA, rBaseB, rCnt := isa.R(4), isa.R(5), isa.R(6)
	fA0, fB0, fP0, fAcc0 := isa.F(1), isa.F(2), isa.F(3), isa.F(4)
	fA1, fB1, fP1, fAcc1 := isa.F(5), isa.F(6), isa.F(7), isa.F(8)

	b := prog.NewBuilder(fmt.Sprintf("gemmblock/s%d", stride))
	rng := seedRNG(seed, 11)
	b.SetReg(rBaseA, int64(baseA))
	b.SetReg(rBaseB, int64(baseB))
	b.SetReg(rKA, (int64(rng.Intn(words)) << 3 &^ 63))
	b.SetReg(rKB, (int64(rng.Intn(words)) << 3 &^ 63))
	b.SetReg(rCnt, forever)
	b.SetReg(fAcc0, int64(math.Float64bits(0)))
	b.SetReg(fAcc1, int64(math.Float64bits(1)))
	b.InitWith(func(m *prog.Memory) {
		vr := seedRNG(seed, 12)
		// Populate one block's worth of each matrix; the rest reads as
		// zero, which is fine for FMA timing.
		for i := 0; i < 1<<12 && i < words; i++ {
			m.Write(baseA+uint64(i)*8, int64(math.Float64bits(vr.Float64())))
			m.Write(baseB+uint64(i)*8, int64(math.Float64bits(vr.Float64())))
		}
	})

	b.Label("loop").
		// A row: two sequential elements.
		Add(rAddr, rBaseA, rKA).
		Ld(fA0, rAddr, 0).
		Ld(fA1, rAddr, 8).
		Addi(rKA, rKA, 16).
		Andi(rKA, rKA, mask).
		// B column: two strided elements.
		Add(rAddr, rBaseB, rKB).
		Ld(fB0, rAddr, 0).
		Ld(fB1, rAddr, int64(stride)<<3).
		Addi(rKB, rKB, int64(2*stride)<<3).
		Andi(rKB, rKB, mask).
		// Two independent FMA chains.
		FMul(fP0, fA0, fB0).
		FAdd(fAcc0, fAcc0, fP0).
		FMul(fP1, fA1, fB1).
		FAdd(fAcc1, fAcc1, fP1).
		Addi(rCnt, rCnt, -1).
		Br(isa.CondNE, rCnt, "loop").
		Jmp("loop")
	return b.Build()
}

// genHashJoin probes a seeded table with a seeded multiplicative hash;
// the match branch is data-dependent with knob-controlled entropy.
func genHashJoin(k Knobs, scale float64, seed int64) *prog.Program {
	words := scaleWords(k.FootprintWords, scale, 1<<13)

	rX, rH, rIdx, rOff, rAddr := isa.R(1), isa.R(2), isa.R(3), isa.R(4), isa.R(5)
	rV, rPar, rCnt, rHits := isa.R(6), isa.R(7), isa.R(8), isa.R(9)
	rBase, rPhi, rWa, rWb, rAcc := isa.R(10), isa.R(11), isa.R(12), isa.R(13), isa.R(14)
	rThree := isa.R(15)

	b := prog.NewBuilder("hashjoin")
	b.SetReg(rX, seedConst(seed, 21))
	b.SetReg(rPhi, seedConst(seed, 22))
	b.SetReg(rBase, int64(baseA))
	b.SetReg(rThree, 3)
	b.SetReg(rCnt, forever)
	b.InitWith(func(m *prog.Memory) {
		rng := seedRNG(seed, 23)
		for i := 0; i < words; i++ {
			w := rng.Int63()
			if rng.Float64() >= 2*k.BranchEntropy {
				w &^= 1 // predictable parity: the match branch falls through
			}
			m.Write(baseA+uint64(i)*8, w)
		}
	})

	b.Label("loop").
		Addi(rX, rX, lcgAdd).
		Mul(rH, rX, rPhi).
		Andi(rIdx, rH, int64(words-1)).
		Shli(rOff, rIdx, 3).
		Add(rAddr, rBase, rOff).
		Ld(rV, rAddr, 0). // the probe miss
		Andi(rPar, rV, 1).
		Br(isa.CondNE, rPar, "match") // data-dependent, entropy-controlled
	payloadChain(b, rV, rWa, rWb, rAcc, rThree, k.PayloadOps)
	b.Addi(rCnt, rCnt, -1).
		Br(isa.CondNE, rCnt, "loop").
		Jmp("loop").
		Label("match").
		Addi(rHits, rHits, 1).
		Add(rAcc, rAcc, rV).
		Jmp("loop")
	return b.Build()
}

// genProdCons streams stores around a large ring while dependent loads
// trail a fixed lag behind, mixing store-miss pressure with forwarding-
// distance loads — the paper's NU+NR store class en masse.
func genProdCons(k Knobs, scale float64, seed int64) *prog.Program {
	words := scaleWords(k.FootprintWords, scale, 1<<14)
	stride := k.Stride
	if stride < 1 {
		stride = 1
	}
	lag := k.Chains
	if lag < 1 {
		lag = 1
	}
	if lag >= words/2 {
		lag = words / 2
	}
	mask := int64(words-1) << 3

	rHead, rTail, rAddr, rVal := isa.R(1), isa.R(2), isa.R(3), isa.R(4)
	rBase, rCnt, rX, rMul := isa.R(5), isa.R(6), isa.R(7), isa.R(8)
	rD, rWa, rWb, rAcc, rThree := isa.R(9), isa.R(10), isa.R(11), isa.R(12), isa.R(13)

	// The ring start is seed-phased so replicated runs sample different
	// cache-set alignments (and therefore measurably different timing).
	start := seedRNG(seed, 31).Intn(words) &^ 7

	b := prog.NewBuilder(fmt.Sprintf("prodcons/l%d", lag))
	b.SetReg(rBase, int64(baseA))
	b.SetReg(rHead, (int64(start)+int64(lag))<<3&mask) // a full lag ahead of tail
	b.SetReg(rTail, int64(start)<<3)
	b.SetReg(rX, seedConst(seed, 33))
	b.SetReg(rMul, lcgMul)
	b.SetReg(rThree, 3)
	b.SetReg(rCnt, forever)
	b.InitWith(func(m *prog.Memory) {
		rng := seedRNG(seed, 32)
		for i := 0; i < lag; i++ {
			m.Write(baseA+uint64((start+i)%words)*8, rng.Int63())
		}
	})

	b.Label("loop").
		// Producer: compute a value, store it at head.
		Mul(rX, rX, rMul).
		Addi(rX, rX, lcgAdd).
		Andi(rVal, rX, 0xFFFFF).
		Add(rAddr, rBase, rHead).
		St(rAddr, 0, rVal).
		Addi(rHead, rHead, int64(stride)<<3).
		Andi(rHead, rHead, mask).
		// Consumer: load the element lag slots behind, do payload work.
		Add(rAddr, rBase, rTail).
		Ld(rD, rAddr, 0).
		Addi(rTail, rTail, int64(stride)<<3).
		Andi(rTail, rTail, mask)
	payloadChain(b, rD, rWa, rWb, rAcc, rThree, k.PayloadOps)
	b.Addi(rCnt, rCnt, -1).
		Br(isa.CondNE, rCnt, "loop").
		Jmp("loop")
	return b.Build()
}

// genBranchy walks a seeded input stream through a small state machine
// with two data-dependent branches per step; the working set is L1-
// resident, so branch behaviour — not memory — bounds performance.
func genBranchy(k Knobs, scale float64, seed int64) *prog.Program {
	words := scaleWords(k.FootprintWords, scale, 1<<8)

	rI, rAddr, rV, rPar, rSign := isa.R(1), isa.R(2), isa.R(3), isa.R(4), isa.R(5)
	rState, rAcc, rCnt, rBase := isa.R(6), isa.R(7), isa.R(8), isa.R(9)

	b := prog.NewBuilder("branchy")
	b.SetReg(rBase, int64(baseA))
	b.SetReg(rState, seedConst(seed, 41)&0xFF)
	b.SetReg(rCnt, forever)
	b.InitWith(func(m *prog.Memory) {
		rng := seedRNG(seed, 42)
		for i := 0; i < words; i++ {
			w := int64(rng.Uint64()) // sign bit random: sign branch ~50% taken
			if rng.Float64() >= 2*k.BranchEntropy {
				w &^= 1        // parity branch falls through
				w &= 1<<63 - 1 // sign branch not taken
			}
			m.Write(baseA+uint64(i)*8, w)
		}
	})

	b.Label("loop").
		Add(rAddr, rBase, rI).
		Ld(rV, rAddr, 0).
		Andi(rPar, rV, 1).
		Br(isa.CondNE, rPar, "odd"). // data-dependent branch 1
		Addi(rState, rState, 2).
		Jmp("j1").
		Label("odd").
		Mul(rState, rState, rV).
		Label("j1").
		Addi(rSign, rV, 0).
		Br(isa.CondLT, rSign, "neg"). // data-dependent branch 2
		Add(rAcc, rAcc, rState).
		Jmp("j2").
		Label("neg").
		Sub(rAcc, rAcc, rState).
		Label("j2").
		Andi(rState, rState, 0xFF).
		Addi(rI, rI, 8).
		Andi(rI, rI, int64(words-1)<<3).
		Addi(rCnt, rCnt, -1).
		Br(isa.CondNE, rCnt, "loop").
		Jmp("loop")
	return b.Build()
}

// genPhased alternates an ILP phase (two FP chains, no memory) with an
// MLP phase (seeded random gathers plus payload), the on/off shape the
// DRAM-timer monitor must track.
func genPhased(k Knobs, scale float64, seed int64) *prog.Program {
	words := scaleWords(k.FootprintWords, scale, 1<<14)
	phase := k.PhaseLen
	if phase < 8 {
		phase = 8
	}
	memIters := phase / 4
	if memIters < 2 {
		memIters = 2
	}

	rX, rIdx, rOff, rAddr := isa.R(1), isa.R(2), isa.R(3), isa.R(4)
	rD, rMul, rBase := isa.R(5), isa.R(6), isa.R(7)
	rPh1, rPh2, rWa, rWb, rAcc, rThree := isa.R(8), isa.R(9), isa.R(10), isa.R(11), isa.R(12), isa.R(13)
	f1, f2, fk1, fk2 := isa.F(1), isa.F(2), isa.F(3), isa.F(4)

	b := prog.NewBuilder(fmt.Sprintf("phased/p%d", phase))
	b.SetReg(rX, seedConst(seed, 51))
	b.SetReg(rMul, lcgMul)
	b.SetReg(rBase, int64(baseA))
	b.SetReg(rThree, 3)
	b.SetReg(fk1, int64(math.Float64bits(1.0000001)))
	b.SetReg(fk2, int64(math.Float64bits(0.0000001)))

	b.Label("outer").
		Movi(rPh1, int64(phase))
	b.Label("compute").
		FMul(f1, f1, fk1).
		FAdd(f1, f1, fk2).
		FMul(f2, f2, fk1).
		FAdd(f2, f2, fk2).
		Addi(rPh1, rPh1, -1).
		Br(isa.CondNE, rPh1, "compute").
		Movi(rPh2, int64(memIters))
	b.Label("memory").
		Mul(rX, rX, rMul).
		Addi(rX, rX, lcgAdd).
		Andi(rIdx, rX, int64(words-1)).
		Shli(rOff, rIdx, 3).
		Add(rAddr, rBase, rOff).
		Ld(rD, rAddr, 0)
	payloadChain(b, rD, rWa, rWb, rAcc, rThree, k.PayloadOps)
	b.Addi(rPh2, rPh2, -1).
		Br(isa.CondNE, rPh2, "memory").
		Jmp("outer")
	return b.Build()
}

// genMemHog streams loads (and every fourth iteration a dirty store)
// at line stride through a footprint far larger than the LLC, so its
// steady state is a DRAM-bandwidth stream: the shared-hierarchy
// co-runner that evicts the primary core's LLC lines and occupies
// MSHRs and DRAM banks.
func genMemHog(k Knobs, scale float64, seed int64) *prog.Program {
	words := scaleWords(k.FootprintWords, scale, 1<<16)
	stride := k.Stride
	if stride < 1 {
		stride = 1
	}
	mask := int64(words-1) << 3

	rIdx, rAddr, rV, rPh := isa.R(1), isa.R(2), isa.R(3), isa.R(4)
	rBase, rCnt, rWa, rWb, rAcc, rThree := isa.R(5), isa.R(6), isa.R(7), isa.R(8), isa.R(9), isa.R(10)

	start := seedRNG(seed, 61).Intn(words) &^ 7

	b := prog.NewBuilder(fmt.Sprintf("memhog/s%d", stride))
	b.SetReg(rBase, int64(baseA))
	b.SetReg(rIdx, int64(start)<<3&mask)
	b.SetReg(rThree, 3)
	b.SetReg(rCnt, forever)
	b.Label("loop").
		Add(rAddr, rBase, rIdx).
		Ld(rV, rAddr, 0)
	payloadChain(b, rV, rWa, rWb, rAcc, rThree, k.PayloadOps)
	b.Andi(rPh, rCnt, 3).
		Br(isa.CondNE, rPh, "skipst").
		St(rAddr, 0, rAcc).
		Label("skipst").
		Addi(rIdx, rIdx, int64(stride)<<3).
		Andi(rIdx, rIdx, mask).
		Addi(rCnt, rCnt, -1).
		Br(isa.CondNE, rCnt, "loop").
		Jmp("loop")
	return b.Build()
}
