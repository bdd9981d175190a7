package knapsack

// blocksAVX2 is blocks in AVX2 (layer_amd64.s): four accumulators of
// four levels each walk the points in order, add perf[k] to the four
// prev cells cost[k] below, and where the sum compares strictly greater
// blend it and k into the running best — a blend, not a max, so a tie
// keeps the earlier point and NaN, -Inf and signed zeros come out as
// cells' "if v > bestV" leaves them. It trusts blocks' contract.
//
//go:noescape
func blocksAVX2(prev []float64, cost []int, perf, layer []float64, cho []uint16)

// cpuid and xgetbv execute the instructions they are named after.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

func init() {
	if hasAVX2() {
		blocks = blocksAVX2
	}
}

// hasAVX2 reports whether the CPU executes AVX2 and the OS saves the
// YMM registers across context switches.
func hasAVX2() bool {
	const (
		osxsaveAVX = 1<<27 | 1<<28 // leaf 1 ECX: OSXSAVE, AVX
		xmmYMM     = 1<<1 | 1<<2   // XCR0: SSE and AVX state enabled
		avx2       = 1 << 5        // leaf 7 EBX
	)
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	if _, _, c, _ := cpuid(1, 0); c&osxsaveAVX != osxsaveAVX {
		return false
	}
	if x, _ := xgetbv(); x&xmmYMM != xmmYMM {
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&avx2 != 0
}
