#include "textflag.h"

// AVX2 forms of the matrix kernels in into.go. Each SIMD lane holds one
// output element and sums its products in k-ascending order from +0 with a
// VMULPD then a VADDPD (never FMA), with the accumulator as the first source
// of the add as in the compiled Go kernels, so every output is bit-identical
// to the Go reference. All four functions are NOSPLIT leaves.

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// tailMask holds four all-ones quadwords then four zero ones: the 32 bytes
// at tailMask<>+8*(4-r) enable the first r lanes of a VMASKMOVPD.
DATA tailMask<>+0(SB)/8, $-1
DATA tailMask<>+8(SB)/8, $-1
DATA tailMask<>+16(SB)/8, $-1
DATA tailMask<>+24(SB)/8, $-1
DATA tailMask<>+32(SB)/8, $0
DATA tailMask<>+40(SB)/8, $0
DATA tailMask<>+48(SB)/8, $0
DATA tailMask<>+56(SB)/8, $0
GLOBL tailMask<>(SB), RODATA|NOPTR, $64

// ROW adds A(i,k)·b(k, j..j+3) (b's four columns in Y4) into acc unless
// A(i,k) at addr is ±0: its bits doubled in R14 are zero only then. NaN is
// not skipped: the same test as the Go kernels' av != 0, without a taken
// branch in the common nonzero case. R14 (the goroutine register of Go's
// register ABI) is scratch in ABI0 assembly: callers reload it on return.
#define ROW(addr, acc, skip) \
	MOVQ         addr, R14; \
	ADDQ         R14, R14; \
	JEQ          skip; \
	VBROADCASTSD addr, Y5; \
	VMULPD       Y4, Y5, Y5; \
	VADDPD       Y5, acc, acc; \
skip:

// func mulRowsAsm(a *float64, rs, ks int, b *float64, kk, n int, out *float64, rows int)
//
// Register use: DI row block of A, AX A(i,k), R8 rs·8, R13 3·rs·8, R9 ks·8,
// SI b, CX b(k,j), R12 n·8, DX row block of out, R11 j·8, BX rows left,
// R10 k count, R14 scratch, Y0-Y3 accumulators, Y13 tail mask.
TEXT ·mulRowsAsm(SB), NOSPLIT, $0-64
	MOVQ   a+0(FP), DI
	MOVQ   rs+8(FP), R8
	SHLQ   $3, R8
	LEAQ   (R8)(R8*2), R13
	MOVQ   ks+16(FP), R9
	SHLQ   $3, R9
	MOVQ   b+24(FP), SI
	MOVQ   n+40(FP), R12
	SHLQ   $3, R12
	MOVQ   out+48(FP), DX
	MOVQ   rows+56(FP), BX

rows4:
	CMPQ BX, $4
	JLT  rows1
	XORQ R11, R11

cols4:
	LEAQ   32(R11), R10
	CMPQ   R10, R12
	JGT    tail4
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ   DI, AX
	LEAQ   (SI)(R11*1), CX
	MOVQ   kk+32(FP), R10

k4:
	VMOVUPD (CX), Y4
	ROW((AX), Y0, k4skip0)
	ROW((AX)(R8*1), Y1, k4skip1)
	ROW((AX)(R8*2), Y2, k4skip2)
	ROW((AX)(R13*1), Y3, k4skip3)
	ADDQ    R9, AX
	ADDQ    R12, CX
	DECQ    R10
	JNZ     k4

	LEAQ    (DX)(R11*1), R10
	VMOVUPD Y0, (R10)
	VMOVUPD Y1, (R10)(R12*1)
	VMOVUPD Y2, (R10)(R12*2)
	ADDQ    R12, R10
	VMOVUPD Y3, (R10)(R12*2)
	ADDQ    $32, R11
	JMP     cols4

tail4:
	// n%4 columns left: load and store them under a lane mask.
	CMPQ    R11, R12
	JGE     next4
	LEAQ    tailMask<>+32(SB), R10
	SUBQ    R12, R10
	ADDQ    R11, R10
	VMOVUPD (R10), Y13
	VXORPD  Y0, Y0, Y0
	VXORPD  Y1, Y1, Y1
	VXORPD  Y2, Y2, Y2
	VXORPD  Y3, Y3, Y3
	MOVQ    DI, AX
	LEAQ    (SI)(R11*1), CX
	MOVQ    kk+32(FP), R10

km4:
	VMASKMOVPD (CX), Y13, Y4
	ROW((AX), Y0, km4skip0)
	ROW((AX)(R8*1), Y1, km4skip1)
	ROW((AX)(R8*2), Y2, km4skip2)
	ROW((AX)(R13*1), Y3, km4skip3)
	ADDQ       R9, AX
	ADDQ       R12, CX
	DECQ       R10
	JNZ        km4

	LEAQ       (DX)(R11*1), R10
	VMASKMOVPD Y0, Y13, (R10)
	ADDQ       R12, R10
	VMASKMOVPD Y1, Y13, (R10)
	ADDQ       R12, R10
	VMASKMOVPD Y2, Y13, (R10)
	ADDQ       R12, R10
	VMASKMOVPD Y3, Y13, (R10)

next4:
	LEAQ (DI)(R8*4), DI
	LEAQ (DX)(R12*4), DX
	SUBQ $4, BX
	JMP  rows4

rows1:
	// Fewer than four rows left: one row at a time.
	TESTQ BX, BX
	JZ    done
	XORQ  R11, R11

cols1:
	LEAQ   32(R11), R10
	CMPQ   R10, R12
	JGT    tail1
	VXORPD Y0, Y0, Y0
	MOVQ   DI, AX
	LEAQ   (SI)(R11*1), CX
	MOVQ   kk+32(FP), R10

k1:
	VMOVUPD (CX), Y4
	ROW((AX), Y0, k1skip)
	ADDQ    R9, AX
	ADDQ    R12, CX
	DECQ    R10
	JNZ     k1

	VMOVUPD Y0, (DX)(R11*1)
	ADDQ    $32, R11
	JMP     cols1

tail1:
	CMPQ    R11, R12
	JGE     next1
	LEAQ    tailMask<>+32(SB), R10
	SUBQ    R12, R10
	ADDQ    R11, R10
	VMOVUPD (R10), Y13
	VXORPD  Y0, Y0, Y0
	MOVQ    DI, AX
	LEAQ    (SI)(R11*1), CX
	MOVQ    kk+32(FP), R10

km1:
	VMASKMOVPD (CX), Y13, Y4
	ROW((AX), Y0, km1skip)
	ADDQ       R9, AX
	ADDQ       R12, CX
	DECQ       R10
	JNZ        km1

	LEAQ       (DX)(R11*1), R10
	VMASKMOVPD Y0, Y13, (R10)

next1:
	ADDQ R8, DI
	ADDQ R12, DX
	DECQ BX
	JMP  rows1

done:
	VZEROUPPER
	RET

// TRANSPOSE turns four rows of b, four k wide, in Y4-Y7 into four columns:
// Y4+c holds b(j..j+3, k+c). Y8-Y11 are scratch.
#define TRANSPOSE \
	VUNPCKLPD  Y5, Y4, Y8; \
	VUNPCKHPD  Y5, Y4, Y9; \
	VUNPCKLPD  Y7, Y6, Y10; \
	VUNPCKHPD  Y7, Y6, Y11; \
	VPERM2F128 $0x20, Y10, Y8, Y4; \
	VPERM2F128 $0x20, Y11, Y9, Y5; \
	VPERM2F128 $0x31, Y10, Y8, Y6; \
	VPERM2F128 $0x31, Y11, Y9, Y7

// DOT4 adds a(i,k+c)·b(j..j+3, k+c) for c = 0..3, in that order, into acc;
// m0-m3 address a(i,k)..a(i,k+3).
#define DOT4(m0, m1, m2, m3, acc) \
	VBROADCASTSD m0, Y12; \
	VMULPD       Y4, Y12, Y12; \
	VADDPD       Y12, acc, acc; \
	VBROADCASTSD m1, Y13; \
	VMULPD       Y5, Y13, Y13; \
	VADDPD       Y13, acc, acc; \
	VBROADCASTSD m2, Y12; \
	VMULPD       Y6, Y12, Y12; \
	VADDPD       Y12, acc, acc; \
	VBROADCASTSD m3, Y13; \
	VMULPD       Y7, Y13, Y13; \
	VADDPD       Y13, acc, acc

// COLUMN builds b(j..j+3, k) in Y4 from four scalar loads, for the k left
// over after the four-wide steps.
#define COLUMN \
	VMOVSD      (CX), X4; \
	VMOVHPD     (CX)(R12*1), X4, X4; \
	VMOVSD      (CX)(R12*2), X5; \
	VMOVHPD     (CX)(R13*1), X5, X5; \
	VINSERTF128 $1, X5, Y4, Y4

// DOT1 adds a(i,k)·b(j..j+3, k), a(i,k) at m, into acc.
#define DOT1(m, acc) \
	VBROADCASTSD m, Y12; \
	VMULPD       Y4, Y12, Y12; \
	VADDPD       Y12, acc, acc

// STORE writes acc to out at addr, or (out + acc) + bias with the bias
// vector in Y14 when R10 (the bias pointer) is non-nil.
#define STORE(acc, addr, plain) \
	TESTQ   R10, R10; \
	JZ      plain; \
	VMOVUPD addr, Y8; \
	VADDPD  acc, Y8, acc; \
	VADDPD  Y14, acc, acc; \
plain: \
	VMOVUPD acc, addr

// func mulBTAsm(a, b, out, bias *float64, rows, n, m int)
//
// Register use: DI row block of a, AX a(i,k), R12 n·8, R13 3·n·8, R9 block
// of four rows of b, CX b(j,k), DX row block of out, R11 m·8, R8 j·8,
// SI (m&^3)·8, BX rows left, R10 k count then bias, Y0-Y3 accumulators.
TEXT ·mulBTAsm(SB), NOSPLIT, $0-56
	MOVQ a+0(FP), DI
	MOVQ out+16(FP), DX
	MOVQ rows+32(FP), BX
	MOVQ n+40(FP), R12
	SHLQ $3, R12
	LEAQ (R12)(R12*2), R13
	MOVQ m+48(FP), R11
	SHLQ $3, R11
	MOVQ R11, SI
	ANDQ $-32, SI

btrows4:
	CMPQ BX, $4
	JLT  btrows1
	XORQ R8, R8
	MOVQ b+8(FP), R9

btj4:
	CMPQ   R8, SI
	JGE    btnext4
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ   DI, AX
	MOVQ   R9, CX
	MOVQ   n+40(FP), R10
	SHRQ   $2, R10
	JZ     btrem4

btk4:
	VMOVUPD (CX), Y4
	VMOVUPD (CX)(R12*1), Y5
	VMOVUPD (CX)(R12*2), Y6
	VMOVUPD (CX)(R13*1), Y7
	TRANSPOSE
	DOT4(0(AX), 8(AX), 16(AX), 24(AX), Y0)
	DOT4(0(AX)(R12*1), 8(AX)(R12*1), 16(AX)(R12*1), 24(AX)(R12*1), Y1)
	DOT4(0(AX)(R12*2), 8(AX)(R12*2), 16(AX)(R12*2), 24(AX)(R12*2), Y2)
	DOT4(0(AX)(R13*1), 8(AX)(R13*1), 16(AX)(R13*1), 24(AX)(R13*1), Y3)
	ADDQ    $32, AX
	ADDQ    $32, CX
	DECQ    R10
	JNZ     btk4

btrem4:
	MOVQ n+40(FP), R10
	ANDQ $3, R10
	JZ   btstore4

btremk4:
	COLUMN
	DOT1((AX), Y0)
	DOT1((AX)(R12*1), Y1)
	DOT1((AX)(R12*2), Y2)
	DOT1((AX)(R13*1), Y3)
	ADDQ $8, AX
	ADDQ $8, CX
	DECQ R10
	JNZ  btremk4

btstore4:
	MOVQ    bias+24(FP), R10
	TESTQ   R10, R10
	JZ      btaddr4
	VMOVUPD (R10)(R8*1), Y14

btaddr4:
	LEAQ (DX)(R8*1), AX
	STORE(Y0, (AX), btplain40)
	ADDQ R11, AX
	STORE(Y1, (AX), btplain41)
	ADDQ R11, AX
	STORE(Y2, (AX), btplain42)
	ADDQ R11, AX
	STORE(Y3, (AX), btplain43)
	ADDQ $32, R8
	LEAQ (R9)(R12*4), R9
	JMP  btj4

btnext4:
	LEAQ (DI)(R12*4), DI
	LEAQ (DX)(R11*4), DX
	SUBQ $4, BX
	JMP  btrows4

btrows1:
	// Fewer than four rows left: one row at a time.
	TESTQ BX, BX
	JZ    btdone
	XORQ  R8, R8
	MOVQ  b+8(FP), R9

btj1:
	CMPQ   R8, SI
	JGE    btnext1
	VXORPD Y0, Y0, Y0
	MOVQ   DI, AX
	MOVQ   R9, CX
	MOVQ   n+40(FP), R10
	SHRQ   $2, R10
	JZ     btrem1

btk1:
	VMOVUPD (CX), Y4
	VMOVUPD (CX)(R12*1), Y5
	VMOVUPD (CX)(R12*2), Y6
	VMOVUPD (CX)(R13*1), Y7
	TRANSPOSE
	DOT4(0(AX), 8(AX), 16(AX), 24(AX), Y0)
	ADDQ    $32, AX
	ADDQ    $32, CX
	DECQ    R10
	JNZ     btk1

btrem1:
	MOVQ n+40(FP), R10
	ANDQ $3, R10
	JZ   btstore1

btremk1:
	COLUMN
	DOT1((AX), Y0)
	ADDQ $8, AX
	ADDQ $8, CX
	DECQ R10
	JNZ  btremk1

btstore1:
	MOVQ    bias+24(FP), R10
	TESTQ   R10, R10
	JZ      btaddr1
	VMOVUPD (R10)(R8*1), Y14

btaddr1:
	LEAQ (DX)(R8*1), AX
	STORE(Y0, (AX), btplain1)
	ADDQ $32, R8
	LEAQ (R9)(R12*4), R9
	JMP  btj1

btnext1:
	ADDQ R12, DI
	ADDQ R11, DX
	DECQ BX
	JMP  btrows1

btdone:
	VZEROUPPER
	RET
