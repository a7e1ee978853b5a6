// Compiler hints shared by the hot evaluation loops.
//
// SBST_ALWAYS_INLINE forces a call to be inlined where GCC would otherwise
// outline it; SBST_RESTRICT promises that a pointer aliases no other
// pointer of the same function. Both expand to nothing on other compilers.
#pragma once

#if defined(__GNUC__) || defined(__clang__)
#define SBST_ALWAYS_INLINE __attribute__((always_inline))
#define SBST_RESTRICT __restrict__
#else
#define SBST_ALWAYS_INLINE
#define SBST_RESTRICT
#endif
