#ifndef CSJ_CORE_CPU_DISPATCH_H_
#define CSJ_CORE_CPU_DISPATCH_H_

// Function multiversioning for the vector kernels (EpsilonMatches, the
// prescreen sweep): the compiler emits one clone of a marked function per
// listed ISA and an ifunc resolver picks the widest one the CPU supports
// when the binary loads. The portable baseline build is untouched — no
// -march flags change — yet machines with AVX2/AVX-512 run 8/16-lane
// packed code.
//
// Gated to x86-64 ELF GNU toolchains (ifunc needs ELF + glibc-style
// resolution) and disabled under Thread/AddressSanitizer, whose early
// interposers do not get along with load-time ifunc resolvers.
#if defined(__x86_64__) && defined(__ELF__) && defined(__GNUC__) && \
    !defined(__SANITIZE_THREAD__) && !defined(__SANITIZE_ADDRESS__)
#define CSJ_TARGET_CLONES \
  __attribute__((target_clones("default", "sse4.2", "avx2", "avx512f")))
#define CSJ_HAS_TARGET_CLONES 1
#else
#define CSJ_TARGET_CLONES
#endif

#endif  // CSJ_CORE_CPU_DISPATCH_H_
