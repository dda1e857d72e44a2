#include "textflag.h"

// AVX2+FMA form of the LSTM cell's row pass (cellRowGo in cell.go), four
// lanes per group. Each lane repeats, operation for operation, what the
// scalar Go reference executes on an amd64 host that has FMA:
//
//   - exp is math.Exp's archExp (GOROOT src/math/exp_amd64.s), its avxfma
//     block in …PD form: k = round(x·LOG2E) by VCVTPD2DQY, x − k·LN2U −
//     k·LN2L fused, ×1/16, the fused Horner chain c8…c3, 0.5, 1.0, four
//     (y+2)·y squarings (the last one fused with +1), then the scale by
//     2^k built from k's bits. archExp's special cases (NaN, ±Inf,
//     overflow, results that need the denormal path) are the lanes whose
//     biased exponent k+1023 falls outside [1, 0x7FE];
//   - tanh is math.Tanh (pure Go on amd64, src/math/tanh.go): all three
//     branches are computed in Go's evaluation order and blended, with
//     x == 0 returning x so −0 stays −0;
//   - σ(v) is 1/(1+exp(−v)), the negation a sign flip.
//
// A group is left untouched, and the kernel returns its first lane, when
// any σ exp has a special lane or when g, cPrev or c has a NaN: the scalar
// reference finishes it. Every vector instruction rounds like the scalar
// one it stands for, and the products and sums the Go reference writes
// unfused stay unfused here.

// sign bit
DATA cellSign<>+0(SB)/8, $0x8000000000000000
DATA cellSign<>+8(SB)/8, $0x8000000000000000
DATA cellSign<>+16(SB)/8, $0x8000000000000000
DATA cellSign<>+24(SB)/8, $0x8000000000000000
GLOBL cellSign<>(SB), RODATA|NOPTR, $32

// all but the sign bit
DATA cellAbs<>+0(SB)/8, $0x7fffffffffffffff
DATA cellAbs<>+8(SB)/8, $0x7fffffffffffffff
DATA cellAbs<>+16(SB)/8, $0x7fffffffffffffff
DATA cellAbs<>+24(SB)/8, $0x7fffffffffffffff
GLOBL cellAbs<>(SB), RODATA|NOPTR, $32

// 1.0
DATA cellOne<>+0(SB)/8, $0x3ff0000000000000
DATA cellOne<>+8(SB)/8, $0x3ff0000000000000
DATA cellOne<>+16(SB)/8, $0x3ff0000000000000
DATA cellOne<>+24(SB)/8, $0x3ff0000000000000
GLOBL cellOne<>(SB), RODATA|NOPTR, $32

// 2.0
DATA cellTwo<>+0(SB)/8, $0x4000000000000000
DATA cellTwo<>+8(SB)/8, $0x4000000000000000
DATA cellTwo<>+16(SB)/8, $0x4000000000000000
DATA cellTwo<>+24(SB)/8, $0x4000000000000000
GLOBL cellTwo<>(SB), RODATA|NOPTR, $32

// 0.5
DATA cellHalf<>+0(SB)/8, $0x3fe0000000000000
DATA cellHalf<>+8(SB)/8, $0x3fe0000000000000
DATA cellHalf<>+16(SB)/8, $0x3fe0000000000000
DATA cellHalf<>+24(SB)/8, $0x3fe0000000000000
GLOBL cellHalf<>(SB), RODATA|NOPTR, $32

// LOG2E 1.4426950408889634073599246810018920
DATA expLog2e<>+0(SB)/8, $0x3ff71547652b82fe
DATA expLog2e<>+8(SB)/8, $0x3ff71547652b82fe
DATA expLog2e<>+16(SB)/8, $0x3ff71547652b82fe
DATA expLog2e<>+24(SB)/8, $0x3ff71547652b82fe
GLOBL expLog2e<>(SB), RODATA|NOPTR, $32

// LN2U 0.69314718055966295651160180568695068359375
DATA expLn2U<>+0(SB)/8, $0x3fe62e42fefa3000
DATA expLn2U<>+8(SB)/8, $0x3fe62e42fefa3000
DATA expLn2U<>+16(SB)/8, $0x3fe62e42fefa3000
DATA expLn2U<>+24(SB)/8, $0x3fe62e42fefa3000
GLOBL expLn2U<>(SB), RODATA|NOPTR, $32

// LN2L 0.28235290563031577122588448175013436025525412068e-12
DATA expLn2L<>+0(SB)/8, $0x3d53de6af278ece6
DATA expLn2L<>+8(SB)/8, $0x3d53de6af278ece6
DATA expLn2L<>+16(SB)/8, $0x3d53de6af278ece6
DATA expLn2L<>+24(SB)/8, $0x3d53de6af278ece6
GLOBL expLn2L<>(SB), RODATA|NOPTR, $32

// 0.0625
DATA expSixteenth<>+0(SB)/8, $0x3fb0000000000000
DATA expSixteenth<>+8(SB)/8, $0x3fb0000000000000
DATA expSixteenth<>+16(SB)/8, $0x3fb0000000000000
DATA expSixteenth<>+24(SB)/8, $0x3fb0000000000000
GLOBL expSixteenth<>(SB), RODATA|NOPTR, $32

// 2.4801587301587301587e-5
DATA expC8<>+0(SB)/8, $0x3efa01a01a01a01a
DATA expC8<>+8(SB)/8, $0x3efa01a01a01a01a
DATA expC8<>+16(SB)/8, $0x3efa01a01a01a01a
DATA expC8<>+24(SB)/8, $0x3efa01a01a01a01a
GLOBL expC8<>(SB), RODATA|NOPTR, $32

// 1.9841269841269841270e-4
DATA expC7<>+0(SB)/8, $0x3f2a01a01a01a01a
DATA expC7<>+8(SB)/8, $0x3f2a01a01a01a01a
DATA expC7<>+16(SB)/8, $0x3f2a01a01a01a01a
DATA expC7<>+24(SB)/8, $0x3f2a01a01a01a01a
GLOBL expC7<>(SB), RODATA|NOPTR, $32

// 1.3888888888888888889e-3
DATA expC6<>+0(SB)/8, $0x3f56c16c16c16c17
DATA expC6<>+8(SB)/8, $0x3f56c16c16c16c17
DATA expC6<>+16(SB)/8, $0x3f56c16c16c16c17
DATA expC6<>+24(SB)/8, $0x3f56c16c16c16c17
GLOBL expC6<>(SB), RODATA|NOPTR, $32

// 8.3333333333333333333e-3
DATA expC5<>+0(SB)/8, $0x3f81111111111111
DATA expC5<>+8(SB)/8, $0x3f81111111111111
DATA expC5<>+16(SB)/8, $0x3f81111111111111
DATA expC5<>+24(SB)/8, $0x3f81111111111111
GLOBL expC5<>(SB), RODATA|NOPTR, $32

// 4.1666666666666666667e-2
DATA expC4<>+0(SB)/8, $0x3fa5555555555555
DATA expC4<>+8(SB)/8, $0x3fa5555555555555
DATA expC4<>+16(SB)/8, $0x3fa5555555555555
DATA expC4<>+24(SB)/8, $0x3fa5555555555555
GLOBL expC4<>(SB), RODATA|NOPTR, $32

// 1.6666666666666666667e-1
DATA expC3<>+0(SB)/8, $0x3fc5555555555555
DATA expC3<>+8(SB)/8, $0x3fc5555555555555
DATA expC3<>+16(SB)/8, $0x3fc5555555555555
DATA expC3<>+24(SB)/8, $0x3fc5555555555555
GLOBL expC3<>(SB), RODATA|NOPTR, $32

// the exponent bias 1023, as an integer
DATA expBias<>+0(SB)/8, $0x00000000000003ff
DATA expBias<>+8(SB)/8, $0x00000000000003ff
DATA expBias<>+16(SB)/8, $0x00000000000003ff
DATA expBias<>+24(SB)/8, $0x00000000000003ff
GLOBL expBias<>(SB), RODATA|NOPTR, $32

// tanhP[0] -9.64399179425052238628e-1
DATA tanhP0<>+0(SB)/8, $0xbfeedc5baafd6f4b
DATA tanhP0<>+8(SB)/8, $0xbfeedc5baafd6f4b
DATA tanhP0<>+16(SB)/8, $0xbfeedc5baafd6f4b
DATA tanhP0<>+24(SB)/8, $0xbfeedc5baafd6f4b
GLOBL tanhP0<>(SB), RODATA|NOPTR, $32

// tanhP[1] -9.92877231001918586564e1
DATA tanhP1<>+0(SB)/8, $0xc058d26a0e26682d
DATA tanhP1<>+8(SB)/8, $0xc058d26a0e26682d
DATA tanhP1<>+16(SB)/8, $0xc058d26a0e26682d
DATA tanhP1<>+24(SB)/8, $0xc058d26a0e26682d
GLOBL tanhP1<>(SB), RODATA|NOPTR, $32

// tanhP[2] -1.61468768441708447952e3
DATA tanhP2<>+0(SB)/8, $0xc0993ac030580563
DATA tanhP2<>+8(SB)/8, $0xc0993ac030580563
DATA tanhP2<>+16(SB)/8, $0xc0993ac030580563
DATA tanhP2<>+24(SB)/8, $0xc0993ac030580563
GLOBL tanhP2<>(SB), RODATA|NOPTR, $32

// tanhQ[0] 1.12811678491632931402e2
DATA tanhQ0<>+0(SB)/8, $0x405c33f28a581b86
DATA tanhQ0<>+8(SB)/8, $0x405c33f28a581b86
DATA tanhQ0<>+16(SB)/8, $0x405c33f28a581b86
DATA tanhQ0<>+24(SB)/8, $0x405c33f28a581b86
GLOBL tanhQ0<>(SB), RODATA|NOPTR, $32

// tanhQ[1] 2.23548839060100448583e3
DATA tanhQ1<>+0(SB)/8, $0x40a176fa0e5535fa
DATA tanhQ1<>+8(SB)/8, $0x40a176fa0e5535fa
DATA tanhQ1<>+16(SB)/8, $0x40a176fa0e5535fa
DATA tanhQ1<>+24(SB)/8, $0x40a176fa0e5535fa
GLOBL tanhQ1<>(SB), RODATA|NOPTR, $32

// tanhQ[2] 4.84406305325125486048e3
DATA tanhQ2<>+0(SB)/8, $0x40b2ec102442040c
DATA tanhQ2<>+8(SB)/8, $0x40b2ec102442040c
DATA tanhQ2<>+16(SB)/8, $0x40b2ec102442040c
DATA tanhQ2<>+24(SB)/8, $0x40b2ec102442040c
GLOBL tanhQ2<>(SB), RODATA|NOPTR, $32

// 0.625
DATA tanhMid<>+0(SB)/8, $0x3fe4000000000000
DATA tanhMid<>+8(SB)/8, $0x3fe4000000000000
DATA tanhMid<>+16(SB)/8, $0x3fe4000000000000
DATA tanhMid<>+24(SB)/8, $0x3fe4000000000000
GLOBL tanhMid<>(SB), RODATA|NOPTR, $32

// 0.5*MAXLOG, MAXLOG = 8.8029691931113054295988e+01
DATA tanhBig<>+0(SB)/8, $0x404601e678fc457b
DATA tanhBig<>+8(SB)/8, $0x404601e678fc457b
DATA tanhBig<>+16(SB)/8, $0x404601e678fc457b
DATA tanhBig<>+24(SB)/8, $0x404601e678fc457b
GLOBL tanhBig<>(SB), RODATA|NOPTR, $32

// The lowest and highest k of a σ exp whose 2^k scale is a normal number
// (biased exponent 1 to 0x7FE), as four int32 lanes each.
DATA expKMin<>+0(SB)/4, $-1022
DATA expKMin<>+4(SB)/4, $-1022
DATA expKMin<>+8(SB)/4, $-1022
DATA expKMin<>+12(SB)/4, $-1022
GLOBL expKMin<>(SB), RODATA|NOPTR, $16

DATA expKMax<>+0(SB)/4, $1023
DATA expKMax<>+4(SB)/4, $1023
DATA expKMax<>+8(SB)/4, $1023
DATA expKMax<>+12(SB)/4, $1023
GLOBL expKMax<>(SB), RODATA|NOPTR, $16

// cellMask holds four all-ones quadwords then four zero ones: the 32 bytes
// at cellMask<>+8*(4-r) enable the first r lanes of a VMASKMOVPD.
DATA cellMask<>+0(SB)/8, $-1
DATA cellMask<>+8(SB)/8, $-1
DATA cellMask<>+16(SB)/8, $-1
DATA cellMask<>+24(SB)/8, $-1
DATA cellMask<>+32(SB)/8, $0
DATA cellMask<>+40(SB)/8, $0
DATA cellMask<>+48(SB)/8, $0
DATA cellMask<>+56(SB)/8, $0
GLOBL cellMask<>(SB), RODATA|NOPTR, $64

// EXPCORE sets x to archExp's polynomial for the four lanes of x, up to
// but not including the scale by 2^k, and leaves k as int32 lanes in xk.
// t is scratch.
#define EXPCORE(x, t, xk) \
	VMULPD       expLog2e<>(SB), x, t; \
	VCVTPD2DQY   t, xk; \
	VCVTDQ2PD    xk, t; \
	VFNMADD231PD expLn2U<>(SB), t, x; \
	VFNMADD231PD expLn2L<>(SB), t, x; \
	VMULPD       expSixteenth<>(SB), x, x; \
	VMOVUPD      expC8<>(SB), t; \
	VFMADD213PD  expC7<>(SB), x, t; \
	VFMADD213PD  expC6<>(SB), x, t; \
	VFMADD213PD  expC5<>(SB), x, t; \
	VFMADD213PD  expC4<>(SB), x, t; \
	VFMADD213PD  expC3<>(SB), x, t; \
	VFMADD213PD  cellHalf<>(SB), x, t; \
	VFMADD213PD  cellOne<>(SB), x, t; \
	VMULPD       t, x, x; \
	VADDPD       cellTwo<>(SB), x, t; \
	VMULPD       t, x, x; \
	VADDPD       cellTwo<>(SB), x, t; \
	VMULPD       t, x, x; \
	VADDPD       cellTwo<>(SB), x, t; \
	VMULPD       t, x, x; \
	VADDPD       cellTwo<>(SB), x, t; \
	VFMADD213PD  cellOne<>(SB), t, x

// EXPSCALE multiplies x by 2^k, k the int32 lanes of xk, widened in place
// into yk (the register xk is the low half of).
#define EXPSCALE(x, xk, yk) \
	VPMOVSXDQ xk, yk; \
	VPADDQ    expBias<>(SB), yk, yk; \
	VPSLLQ    $52, yk, yk; \
	VMULPD    yk, x, x

// KFLAGS sets hi's int32 lanes to all ones where the lowest k seen, lo,
// is below −1022 or the highest, hi, above 1023: where some 2^k scale is
// not a normal number. t is scratch.
#define KFLAGS(lo, hi, t) \
	VPCMPGTD expKMax<>(SB), hi, hi; \
	VMOVDQU  expKMin<>(SB), t; \
	VPCMPGTD lo, t, t; \
	VPOR     t, hi, hi

// SIGPRE starts σ(v): x = exp(−v) up to the scale, k in xk. SIGPOST
// finishes it into v: v = 1/(1 + x·2^k). Y15 holds 1.0.
#define SIGPRE(v, x, t, xk) \
	VXORPD cellSign<>(SB), v, x; \
	EXPCORE(x, t, xk)

#define SIGPOST(v, x, xk, yk) \
	EXPSCALE(x, xk, yk); \
	VADDPD Y15, x, x; \
	VDIVPD x, Y15, v

// TANH sets r = tanh(x) for the four lanes of x, which it leaves intact:
// the |x| < 0.625 polynomial, replaced by x where x == ±0, by
// ±(1 − 2/(exp(2|x|)+1)) where |x| ≥ 0.625, and by ±1 where |x| >
// 0.5·MAXLOG. z, s, t, u, e and yk are scratch; xk is the low half of yk.
#define TANH(x, r, z, s, t, u, e, xk, yk) \
	VANDPD    cellAbs<>(SB), x, z; \
	VMULPD    x, x, s; \
	VMULPD    tanhP0<>(SB), s, t; \
	VADDPD    tanhP1<>(SB), t, t; \
	VMULPD    s, t, t; \
	VADDPD    tanhP2<>(SB), t, t; \
	VADDPD    tanhQ0<>(SB), s, u; \
	VMULPD    s, u, u; \
	VADDPD    tanhQ1<>(SB), u, u; \
	VMULPD    s, u, u; \
	VADDPD    tanhQ2<>(SB), u, u; \
	VMULPD    s, x, s; \
	VMULPD    t, s, s; \
	VDIVPD    u, s, s; \
	VADDPD    s, x, r; \
	VXORPD    u, u, u; \
	VCMPPD    $0x00, u, x, u; \
	VBLENDVPD u, x, r, r; \
	VADDPD    z, z, e; \
	EXPCORE(e, t, xk); \
	EXPSCALE(e, xk, yk); \
	VADDPD    Y15, e, e; \
	VADDPD    Y15, Y15, t; \
	VDIVPD    e, t, e; \
	VSUBPD    e, Y15, e; \
	VANDPD    cellSign<>(SB), x, t; \
	VXORPD    t, e, e; \
	VCMPPD    $0x1D, tanhMid<>(SB), z, u; \
	VBLENDVPD u, e, r, r; \
	VORPD     t, Y15, e; \
	VCMPPD    $0x1E, tanhBig<>(SB), z, u; \
	VBLENDVPD u, e, r, r

// CELL runs one group. In: the i, f, o and g pre-activations in Y0-Y3,
// cPrev in Y4, 1.0 in Y15. Out: σ(i), σ(f), σ(o) in Y0-Y2, tanh(g) in Y5,
// c in Y6, tanh(c) in Y3, h in Y7, and in Y14 all-ones lanes for every lane
// the scalar reference must run. Y13 is left intact.
#define CELL \
	VCMPPD    $3, Y3, Y3, Y14; \
	VCMPPD    $3, Y4, Y4, Y5; \
	VORPD     Y5, Y14, Y14; \
	SIGPRE(Y0, Y5, Y6, X7); \
	VMOVDQU   X7, X8; \
	VMOVDQU   X7, X9; \
	SIGPOST(Y0, Y5, X7, Y7); \
	SIGPRE(Y1, Y5, Y6, X7); \
	VPMINSD   X7, X8, X8; \
	VPMAXSD   X7, X9, X9; \
	SIGPOST(Y1, Y5, X7, Y7); \
	SIGPRE(Y2, Y5, Y6, X7); \
	VPMINSD   X7, X8, X8; \
	VPMAXSD   X7, X9, X9; \
	SIGPOST(Y2, Y5, X7, Y7); \
	KFLAGS(X8, X9, X10); \
	VPMOVSXDQ X9, Y9; \
	VPOR      Y9, Y14, Y14; \
	TANH(Y3, Y5, Y6, Y7, Y8, Y9, Y10, X11, Y11); \
	VMULPD    Y4, Y1, Y6; \
	VMULPD    Y5, Y0, Y7; \
	VADDPD    Y7, Y6, Y6; \
	VCMPPD    $3, Y6, Y6, Y7; \
	VORPD     Y7, Y14, Y14; \
	TANH(Y6, Y3, Y7, Y8, Y9, Y10, Y11, X12, Y12); \
	VMULPD    Y3, Y2, Y7

// func cellRowAsm(gates *float64, hh int, cPrev, c, h, tanhC *float64, n int) int
//
// Register use: SI lane of the i gate, R8 hh·8, R11 3·hh·8, DX cPrev, DI c,
// R9 h, R10 tanhC (0 when nil), BX lanes left, AX lanes done, R12 and R13
// scratch, Y13 the tail's lane mask, Y15 1.0.
TEXT ·cellRowAsm(SB), NOSPLIT, $0-64
	MOVQ    gates+0(FP), SI
	MOVQ    hh+8(FP), R8
	SHLQ    $3, R8
	LEAQ    (R8)(R8*2), R11
	MOVQ    cPrev+16(FP), DX
	MOVQ    c+24(FP), DI
	MOVQ    h+32(FP), R9
	MOVQ    tanhC+40(FP), R10
	MOVQ    n+48(FP), BX
	XORQ    AX, AX
	VMOVUPD cellOne<>(SB), Y15

group:
	CMPQ    BX, $4
	JLT     tail
	VMOVUPD (SI), Y0
	VMOVUPD (SI)(R8*1), Y1
	VMOVUPD (SI)(R8*2), Y2
	VMOVUPD (SI)(R11*1), Y3
	VMOVUPD (DX), Y4
	CELL
	VPTEST  Y14, Y14
	JNZ     stop
	VMOVUPD Y0, (SI)
	VMOVUPD Y1, (SI)(R8*1)
	VMOVUPD Y2, (SI)(R8*2)
	VMOVUPD Y5, (SI)(R11*1)
	VMOVUPD Y6, (DI)
	VMOVUPD Y7, (R9)
	TESTQ   R10, R10
	JZ      next
	VMOVUPD Y3, (R10)
	ADDQ    $32, R10

next:
	ADDQ $32, SI
	ADDQ $32, DX
	ADDQ $32, DI
	ADDQ $32, R9
	ADDQ $4, AX
	SUBQ $4, BX
	JMP  group

tail:
	// n%4 lanes left: load and store them under a lane mask. The masked-off
	// lanes read as +0, which no check flags.
	TESTQ      BX, BX
	JZ         stop
	LEAQ       cellMask<>+32(SB), R12
	MOVQ       BX, R13
	SHLQ       $3, R13
	SUBQ       R13, R12
	VMOVUPD    (R12), Y13
	VMASKMOVPD (SI), Y13, Y0
	VMASKMOVPD (SI)(R8*1), Y13, Y1
	VMASKMOVPD (SI)(R8*2), Y13, Y2
	VMASKMOVPD (SI)(R11*1), Y13, Y3
	VMASKMOVPD (DX), Y13, Y4
	CELL
	VPTEST     Y14, Y14
	JNZ        stop
	VMASKMOVPD Y0, Y13, (SI)
	VMASKMOVPD Y1, Y13, (SI)(R8*1)
	VMASKMOVPD Y2, Y13, (SI)(R8*2)
	VMASKMOVPD Y5, Y13, (SI)(R11*1)
	VMASKMOVPD Y6, Y13, (DI)
	VMASKMOVPD Y7, Y13, (R9)
	ADDQ       BX, AX
	TESTQ      R10, R10
	JZ         stop
	VMASKMOVPD Y3, Y13, (R10)

stop:
	MOVQ AX, ret+56(FP)
	VZEROUPPER
	RET

// func expAsm(x *[4]float64) (special int)
//
// expAsm runs the kernel's exp on four lanes in place, for the tests that
// hold it to math.Exp, and returns a bit per lane (bit i for lane i) the
// cell kernel would flag.
TEXT ·expAsm(SB), NOSPLIT, $0-16
	MOVQ      x+0(FP), SI
	VMOVUPD   (SI), Y0
	EXPCORE(Y0, Y1, X2)
	VMOVDQU   X2, X3
	KFLAGS(X2, X3, X4)
	VMOVMSKPS X3, AX
	EXPSCALE(Y0, X2, Y2)
	VMOVUPD   Y0, (SI)
	MOVQ      AX, special+8(FP)
	VZEROUPPER
	RET
