// Four-lane AVX2+FMA kernels (lanes.go). Every vector lane replays, one
// operation after another, the scalar code a single value runs elsewhere in
// the tree, so each lane's result has exactly the bits of that scalar code:
//
//   - EXP4 is math.Exp's amd64 FMA path ($GOROOT/src/math/exp_amd64.s,
//     label avxfma) per lane, for arguments in [-708, 709], where that path
//     takes neither its denormal nor its overflow branch;
//   - rbfRowsAsm (one candidate, four design rows a group) and rbfLanesAsm
//     (eight candidates, one design row at a time) are the kernel package's
//     unfused RBF row expression, and rbfLanesAsm's running sum against
//     beta is Dot's;
//   - fwdSweepAsm's dots are dotAsm (length >= 16) or dot4 (length < 16) per
//     lane, and its sums of squares are Dot's;
//   - dotLanesAsm and solveLanesAsm run the same per-lane dots over vectors
//     stored at a runtime stride, and solveLanesAsm's rows are
//     ForwardSolveFlatTo's (its running sum included).
//
// Callers reach these only when haveFMA holds. A group of four whose
// exponent arguments leave the fast range stops the kernel, and the Go
// caller finishes that group with the scalar code.

#include "textflag.h"

// Each constant is replicated four times (32 bytes) so that it can be a
// ymm memory operand. The decimal literals are math's exp_amd64.s ones, so
// the assembler rounds them to the same float64 values.
DATA lanesc<>+0(SB)/8, $1.4426950408889634073599246810018920
DATA lanesc<>+8(SB)/8, $1.4426950408889634073599246810018920
DATA lanesc<>+16(SB)/8, $1.4426950408889634073599246810018920
DATA lanesc<>+24(SB)/8, $1.4426950408889634073599246810018920
DATA lanesc<>+32(SB)/8, $0.69314718055966295651160180568695068359375
DATA lanesc<>+40(SB)/8, $0.69314718055966295651160180568695068359375
DATA lanesc<>+48(SB)/8, $0.69314718055966295651160180568695068359375
DATA lanesc<>+56(SB)/8, $0.69314718055966295651160180568695068359375
DATA lanesc<>+64(SB)/8, $0.28235290563031577122588448175013436025525412068e-12
DATA lanesc<>+72(SB)/8, $0.28235290563031577122588448175013436025525412068e-12
DATA lanesc<>+80(SB)/8, $0.28235290563031577122588448175013436025525412068e-12
DATA lanesc<>+88(SB)/8, $0.28235290563031577122588448175013436025525412068e-12
DATA lanesc<>+96(SB)/8, $0.0625
DATA lanesc<>+104(SB)/8, $0.0625
DATA lanesc<>+112(SB)/8, $0.0625
DATA lanesc<>+120(SB)/8, $0.0625
DATA lanesc<>+128(SB)/8, $2.4801587301587301587e-5
DATA lanesc<>+136(SB)/8, $2.4801587301587301587e-5
DATA lanesc<>+144(SB)/8, $2.4801587301587301587e-5
DATA lanesc<>+152(SB)/8, $2.4801587301587301587e-5
DATA lanesc<>+160(SB)/8, $1.9841269841269841270e-4
DATA lanesc<>+168(SB)/8, $1.9841269841269841270e-4
DATA lanesc<>+176(SB)/8, $1.9841269841269841270e-4
DATA lanesc<>+184(SB)/8, $1.9841269841269841270e-4
DATA lanesc<>+192(SB)/8, $1.3888888888888888889e-3
DATA lanesc<>+200(SB)/8, $1.3888888888888888889e-3
DATA lanesc<>+208(SB)/8, $1.3888888888888888889e-3
DATA lanesc<>+216(SB)/8, $1.3888888888888888889e-3
DATA lanesc<>+224(SB)/8, $8.3333333333333333333e-3
DATA lanesc<>+232(SB)/8, $8.3333333333333333333e-3
DATA lanesc<>+240(SB)/8, $8.3333333333333333333e-3
DATA lanesc<>+248(SB)/8, $8.3333333333333333333e-3
DATA lanesc<>+256(SB)/8, $4.1666666666666666667e-2
DATA lanesc<>+264(SB)/8, $4.1666666666666666667e-2
DATA lanesc<>+272(SB)/8, $4.1666666666666666667e-2
DATA lanesc<>+280(SB)/8, $4.1666666666666666667e-2
DATA lanesc<>+288(SB)/8, $1.6666666666666666667e-1
DATA lanesc<>+296(SB)/8, $1.6666666666666666667e-1
DATA lanesc<>+304(SB)/8, $1.6666666666666666667e-1
DATA lanesc<>+312(SB)/8, $1.6666666666666666667e-1
DATA lanesc<>+320(SB)/8, $0.5
DATA lanesc<>+328(SB)/8, $0.5
DATA lanesc<>+336(SB)/8, $0.5
DATA lanesc<>+344(SB)/8, $0.5
DATA lanesc<>+352(SB)/8, $1.0
DATA lanesc<>+360(SB)/8, $1.0
DATA lanesc<>+368(SB)/8, $1.0
DATA lanesc<>+376(SB)/8, $1.0
DATA lanesc<>+384(SB)/8, $2.0
DATA lanesc<>+392(SB)/8, $2.0
DATA lanesc<>+400(SB)/8, $2.0
DATA lanesc<>+408(SB)/8, $2.0
DATA lanesc<>+416(SB)/8, $-708.0
DATA lanesc<>+424(SB)/8, $-708.0
DATA lanesc<>+432(SB)/8, $-708.0
DATA lanesc<>+440(SB)/8, $-708.0
DATA lanesc<>+448(SB)/8, $709.0
DATA lanesc<>+456(SB)/8, $709.0
DATA lanesc<>+464(SB)/8, $709.0
DATA lanesc<>+472(SB)/8, $709.0
DATA lanesc<>+480(SB)/8, $0x8000000000000000
DATA lanesc<>+488(SB)/8, $0x8000000000000000
DATA lanesc<>+496(SB)/8, $0x8000000000000000
DATA lanesc<>+504(SB)/8, $0x8000000000000000
DATA lanesc<>+512(SB)/4, $1023
DATA lanesc<>+516(SB)/4, $1023
DATA lanesc<>+520(SB)/4, $1023
DATA lanesc<>+524(SB)/4, $1023
GLOBL lanesc<>(SB), RODATA, $528

#define LOG2E lanesc<>+0(SB)
#define LN2U lanesc<>+32(SB)
#define LN2L lanesc<>+64(SB)
#define SIXTEENTH lanesc<>+96(SB)
#define ONE lanesc<>+352(SB)
#define TWO lanesc<>+384(SB)
#define EXPLO lanesc<>+416(SB)
#define EXPHI lanesc<>+448(SB)
#define SIGN lanesc<>+480(SB)
#define BIAS lanesc<>+512(SB)

// INRANGE(x, t1, t2, r) sets r to 15 exactly when every lane of x lies in
// [EXPLO, EXPHI]; a NaN lane compares false. Clobbers t1, t2.
#define INRANGE(x, t1, t2, r) \
	VCMPPD $0x1d, EXPLO, x, t1; \
	VCMPPD $0x12, EXPHI, x, t2; \
	VANDPD t2, t1, t1; \
	VMOVMSKPD t1, r

// EXP4(x, t1, t1x, t2, t3) replaces each lane v of x with math.Exp(v),
// v in [EXPLO, EXPHI]: k = round(v·log2e) (CVTSD2SL's rounding),
// r = (v − k·ln2U − k·ln2L)/16 with fused steps, the degree-8 polynomial as
// a chain of FMAs, four squarings y·(y+2) (the last fused with +1), then the
// product with 2^k built from the exponent bits. t1x is the xmm half of t1.
// Clobbers t1, t2, t3.
#define EXP4(x, t1, t1x, t2, t3) \
	VMULPD LOG2E, x, t1; \
	VCVTPD2DQY t1, t1x; \
	VCVTDQ2PD t1x, t2; \
	VFNMADD231PD LN2U, t2, x; \
	VFNMADD231PD LN2L, t2, x; \
	VMULPD SIXTEENTH, x, x; \
	VMOVUPD lanesc<>+128(SB), t3; \
	VFMADD213PD lanesc<>+160(SB), x, t3; \
	VFMADD213PD lanesc<>+192(SB), x, t3; \
	VFMADD213PD lanesc<>+224(SB), x, t3; \
	VFMADD213PD lanesc<>+256(SB), x, t3; \
	VFMADD213PD lanesc<>+288(SB), x, t3; \
	VFMADD213PD lanesc<>+320(SB), x, t3; \
	VFMADD213PD ONE, x, t3; \
	VMULPD t3, x, x; \
	VADDPD TWO, x, t3; \
	VMULPD t3, x, x; \
	VADDPD TWO, x, t3; \
	VMULPD t3, x, x; \
	VADDPD TWO, x, t3; \
	VMULPD t3, x, x; \
	VADDPD TWO, x, t3; \
	VFMADD213PD ONE, t3, x; \
	VPADDD BIAS, t1x, t1x; \
	VPMOVZXDQ t1x, t2; \
	VPSLLQ $52, t2, t2; \
	VMULPD t2, x, x

// func expAsm(dst, src *float64, n int) int
// dst[i] = math.Exp(src[i]) four at a time; n is a multiple of 4. Returns
// how many values it wrote: n, or the start of the first group with a lane
// outside the fast range.
TEXT ·expAsm(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	XORQ AX, AX
exploop:
	CMPQ AX, CX
	JGE  expdone
	VMOVUPD (SI)(AX*8), Y0
	INRANGE(Y0, Y8, Y9, BX)
	CMPQ BX, $15
	JNE  expdone
	EXP4(Y0, Y1, X1, Y2, Y3)
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ $4, AX
	JMP  exploop
expdone:
	MOVQ AX, ret+24(FP)
	VZEROUPPER
	RET

// func rbfRowsAsm(out, x *float64, d int, cols *[]float64, off int, norms *float64, n int, nx, inv2l2, amp2 float64) int
// For t = 0, 4, 8, ... < n (a multiple of 4), four design rows j = off+t..
// off+t+3 per group, with dimension i of row j at cols[i][j]:
//
//	dot  = ((0 + x0·z0) + x1·z1) + ...  (unfused, left to right)
//	r2   = (nx + norms[j]) − (dot + dot), then r2 < 0 → +0
//	out  = amp2 · exp((−r2) · inv2l2)
//
// Returns how many rows it wrote (see expAsm).
TEXT ·rbfRowsAsm(SB), NOSPLIT, $0-88
	MOVQ out+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ d+16(FP), DX
	MOVQ cols+24(FP), R8
	MOVQ off+32(FP), R11
	SHLQ $3, R11              // R11 = byte offset of row j in a column
	MOVQ norms+40(FP), R12
	MOVQ n+48(FP), CX
	VBROADCASTSD nx+56(FP), Y10
	VBROADCASTSD inv2l2+64(FP), Y11
	VBROADCASTSD amp2+72(FP), Y12
	XORQ AX, AX
rbfloop:
	CMPQ AX, CX
	JGE  rbfdone
	VXORPD Y5, Y5, Y5
	MOVQ R8, R9               // walks the column slice headers
	MOVQ SI, R10              // walks x
	MOVQ DX, BX
rbfdims:
	TESTQ BX, BX
	JZ    rbfdist
	MOVQ  (R9), R13
	VBROADCASTSD (R10), Y6
	VMULPD (R13)(R11*1), Y6, Y6
	VADDPD Y6, Y5, Y5
	ADDQ  $24, R9
	ADDQ  $8, R10
	DECQ  BX
	JMP   rbfdims
rbfdist:
	VADDPD (R12)(R11*1), Y10, Y7
	VADDPD Y5, Y5, Y5
	VSUBPD Y5, Y7, Y7
	VXORPD Y8, Y8, Y8
	VCMPPD $1, Y8, Y7, Y9     // r2 < 0 (false for -0 and NaN)
	VANDNPD Y7, Y9, Y7
	VXORPD SIGN, Y7, Y0
	VMULPD Y11, Y0, Y0
	INRANGE(Y0, Y8, Y9, BX)
	CMPQ BX, $15
	JNE  rbfdone
	EXP4(Y0, Y1, X1, Y2, Y3)
	VMULPD Y0, Y12, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ $4, AX
	ADDQ $32, R11
	JMP  rbfloop
rbfdone:
	MOVQ AX, ret+80(FP)
	VZEROUPPER
	RET


// func rbfLanesAsm(w, x, xt *float64, d int, z, norms, beta *float64, j, m int, inv2l2, amp2 float64, mu *[8]float64) int
// Candidate-major RBF rows for a block of eight candidates, two four-lane
// groups: lane c holds candidate c (row c of x, d values a row). It copies
// x transposed into xt (xt[8i+c] = x[c·d+i]) and sums each lane's
// nx = ((0 + x0·x0) + x1·x1) + ... as sqNorm does. Then, for design rows
// j, j+1, ... < m (row j of z at z[j·d:]), per lane:
//
//	dot  = ((0 + x0·z0) + x1·z1) + ...  (unfused, left to right)
//	r2   = (nx + norms[j]) − (dot + dot), then r2 < 0 → +0
//	k    = amp2 · exp((−r2) · inv2l2)
//	w[8j+c] = k;  mu[c] += k · beta[j]  (unfused)
//
// mu is read on entry and written on exit. It stops at the first j where a
// lane's exponent argument leaves [-708, 709] or is NaN, before touching
// that j, and returns it (m when every row is done).
TEXT ·rbfLanesAsm(SB), NOSPLIT, $0-104
	MOVQ x+8(FP), SI
	MOVQ xt+16(FP), R13
	MOVQ d+24(FP), DX
	MOVQ DX, R11
	SHLQ $3, R11              // R11 = bytes per row of x and z
	MOVQ R13, R10
	MOVQ DX, BX
	TESTQ BX, BX
	JZ    lanesnorm
lanestr:
	MOVQ  SI, R12
	MOVSD (R12), X0
	MOVSD X0, 0(R10)
	ADDQ  R11, R12
	MOVSD (R12), X0
	MOVSD X0, 8(R10)
	ADDQ  R11, R12
	MOVSD (R12), X0
	MOVSD X0, 16(R10)
	ADDQ  R11, R12
	MOVSD (R12), X0
	MOVSD X0, 24(R10)
	ADDQ  R11, R12
	MOVSD (R12), X0
	MOVSD X0, 32(R10)
	ADDQ  R11, R12
	MOVSD (R12), X0
	MOVSD X0, 40(R10)
	ADDQ  R11, R12
	MOVSD (R12), X0
	MOVSD X0, 48(R10)
	ADDQ  R11, R12
	MOVSD (R12), X0
	MOVSD X0, 56(R10)
	ADDQ  $8, SI
	ADDQ  $64, R10
	DECQ  BX
	JNZ   lanestr
lanesnorm:
	VXORPD Y10, Y10, Y10      // nx, group A
	VXORPD Y11, Y11, Y11      // nx, group B
	MOVQ   R13, R10
	MOVQ   DX, BX
	TESTQ  BX, BX
	JZ     lanesinit
lanesnx:
	VMOVUPD 0(R10), Y0
	VMULPD  Y0, Y0, Y0
	VADDPD  Y0, Y10, Y10
	VMOVUPD 32(R10), Y1
	VMULPD  Y1, Y1, Y1
	VADDPD  Y1, Y11, Y11
	ADDQ    $64, R10
	DECQ    BX
	JNZ     lanesnx
lanesinit:
	MOVQ w+0(FP), DI
	MOVQ z+32(FP), R8
	MOVQ norms+40(FP), R9
	MOVQ beta+48(FP), R10
	MOVQ j+56(FP), AX
	MOVQ m+64(FP), CX
	VBROADCASTSD inv2l2+72(FP), Y14
	VBROADCASTSD amp2+80(FP), Y15
	MOVQ    mu+88(FP), BX
	VMOVUPD 0(BX), Y12        // mu, group A
	VMOVUPD 32(BX), Y13       // mu, group B
	MOVQ    AX, BX
	IMULQ   R11, BX
	ADDQ    BX, R8            // R8 = row j of z
lanesloop:
	CMPQ   AX, CX
	JGE    lanesdone
	VXORPD Y0, Y0, Y0
	VXORPD Y4, Y4, Y4
	MOVQ   R8, R12
	MOVQ   R13, R14
	MOVQ   DX, BX
	TESTQ  BX, BX
	JZ     lanesdist
lanesdims:
	VBROADCASTSD (R12), Y1
	VMULPD       0(R14), Y1, Y2
	VADDPD       Y2, Y0, Y0
	VMULPD       32(R14), Y1, Y3
	VADDPD       Y3, Y4, Y4
	ADDQ         $8, R12
	ADDQ         $64, R14
	DECQ         BX
	JNZ          lanesdims
lanesdist:
	VBROADCASTSD (R9)(AX*8), Y1
	VADDPD       Y1, Y10, Y2
	VADDPD       Y0, Y0, Y0
	VSUBPD       Y0, Y2, Y0
	VADDPD       Y1, Y11, Y3
	VADDPD       Y4, Y4, Y4
	VSUBPD       Y4, Y3, Y4
	VXORPD       Y8, Y8, Y8
	VCMPPD       $1, Y8, Y0, Y9 // r2 < 0 (false for -0 and NaN)
	VANDNPD      Y0, Y9, Y0
	VCMPPD       $1, Y8, Y4, Y9
	VANDNPD      Y4, Y9, Y4
	VXORPD       SIGN, Y0, Y0
	VXORPD       SIGN, Y4, Y4
	VMULPD       Y14, Y0, Y0
	VMULPD       Y14, Y4, Y4
	INRANGE(Y0, Y8, Y9, BX)
	INRANGE(Y4, Y8, Y9, R14)
	ANDQ         R14, BX
	CMPQ         BX, $15
	JNE          lanesdone
	EXP4(Y0, Y1, X1, Y2, Y3)
	EXP4(Y4, Y5, X5, Y6, Y7)
	VMULPD       Y0, Y15, Y0
	VMULPD       Y4, Y15, Y4
	MOVQ         AX, BX
	SHLQ         $6, BX
	VMOVUPD      Y0, 0(DI)(BX*1)
	VMOVUPD      Y4, 32(DI)(BX*1)
	VBROADCASTSD (R10)(AX*8), Y1
	VMULPD       Y1, Y0, Y0
	VADDPD       Y0, Y12, Y12
	VMULPD       Y1, Y4, Y4
	VADDPD       Y4, Y13, Y13
	INCQ         AX
	ADDQ         R11, R8
	JMP          lanesloop
lanesdone:
	MOVQ    mu+88(FP), BX
	VMOVUPD Y12, 0(BX)
	VMOVUPD Y13, 32(BX)
	MOVQ    AX, ret+96(FP)
	VZEROUPPER
	RET

// FWD4(ao, yo) starts one dotAsm pass over residue classes p, p+4, p+8
// and p+12 (mod 16), ao = 8p and yo = 64p: it zeroes the accumulators, Y0..Y3
// for group A and Y4..Y7 for group B, points R11 at element p of the row and
// R12 at element p of the interleaved right-hand sides, and sets R13 to the
// number of 16-element chunks.
#define FWD4(ao, yo) \
	LEAQ   ao(BX)(R9*8), R11; \
	LEAQ   yo(R14), R12; \
	MOVQ   DX, R13; \
	SHRQ   $4, R13; \
	VXORPD Y0, Y0, Y0; \
	VXORPD Y1, Y1, Y1; \
	VXORPD Y2, Y2, Y2; \
	VXORPD Y3, Y3, Y3; \
	VXORPD Y4, Y4, Y4; \
	VXORPD Y5, Y5, Y5; \
	VXORPD Y6, Y6, Y6; \
	VXORPD Y7, Y7, Y7

// FWD16 is one 16-element chunk of a pass: each of the four row elements is
// broadcast once and fused into both groups' accumulators.
#define FWD16 \
	VBROADCASTSD 0(R11), Y8; \
	VFMADD231PD  0(R12), Y8, Y0; \
	VFMADD231PD  32(R12), Y8, Y4; \
	VBROADCASTSD 32(R11), Y9; \
	VFMADD231PD  256(R12), Y9, Y1; \
	VFMADD231PD  288(R12), Y9, Y5; \
	VBROADCASTSD 64(R11), Y10; \
	VFMADD231PD  512(R12), Y10, Y2; \
	VFMADD231PD  544(R12), Y10, Y6; \
	VBROADCASTSD 96(R11), Y11; \
	VFMADD231PD  768(R12), Y11, Y3; \
	VFMADD231PD  800(R12), Y11, Y7; \
	ADDQ         $128, R11; \
	ADDQ         $1024, R12; \
	DECQ         R13

// FWDT folds a pass's classes as dotAsm's vertical combine does:
// t = (c_p + c_p+4) + (c_p+8 + c_p+12), into Y0 (A) and Y4 (B).
#define FWDT \
	VADDPD Y1, Y0, Y0; \
	VADDPD Y3, Y2, Y2; \
	VADDPD Y2, Y0, Y0; \
	VADDPD Y5, Y4, Y4; \
	VADDPD Y7, Y6, Y6; \
	VADDPD Y6, Y4, Y4

// func fwdSweepAsm(l *float64, n int, y *float64, ss *[8]float64)
// The whole blocked forward substitution L y_c = b_c for eight interleaved
// right-hand sides (y[8j+c] is element j of lane c), as forwardBlocked runs
// it serially: for each cholBlock-wide block [kb, kend), rows i in the block
// take y_i = (y_i − s)/L_ii and rows below it y_i −= s, where s is the dot
// of row i's elements kb..min(i, kend)−1 with y over the same range. Lanes
// 0..3 (group A) and 4..7 (group B) share every broadcast of L, and a row of
// B overlaps A's divide. ss[c] (zero on entry) gains y_c[i]² as each y_i
// becomes final, in index order and unfused, as Dot sums.
//
// A dot of length >= 16 replays dotAsm per lane: residue class r (mod 16)
// accumulates with fused steps, in four passes of four classes each
// (p, p+4, p+8, p+12, for p = 0, 2, 1, 3), each folded to
// t_p = (c_p + c_p+4) + (c_p+8 + c_p+12); then (t0+t2)+(t1+t3), and the
// length mod 16 tail fused in ascending order. A shorter dot replays dot4:
// four unfused accumulators, the length mod 4 tail into the first, and
// (s0+s1)+(s2+s3). The packed row i starts at l[i(i+1)/2].
TEXT ·fwdSweepAsm(SB), NOSPLIT, $0-32
	MOVQ l+0(FP), R8
	MOVQ n+8(FP), CX
	MOVQ y+16(FP), DI
	MOVQ ss+24(FP), SI
	XORQ R9, R9               // kb
sweepblock:
	CMPQ    R9, CX
	JGE     sweepdone
	LEAQ    64(R9), R10
	CMPQ    R10, CX
	CMOVQGT CX, R10           // kend = min(kb+cholBlock, n)
	LEAQ    1(R9), BX
	IMULQ   R9, BX
	SHRQ    $1, BX
	LEAQ    (R8)(BX*8), BX    // BX = packed row kb
	MOVQ    R9, R14
	SHLQ    $6, R14
	ADDQ    DI, R14           // R14 = element kb of y
	MOVQ    R9, AX            // i
sweeprow:
	CMPQ    AX, CX
	JGE     sweepnext
	MOVQ    AX, DX
	CMPQ    DX, R10
	CMOVQGT R10, DX
	SUBQ    R9, DX            // DX = dot length min(i, kend) − kb
	CMPQ    DX, $16
	JLT     sweepshort
	FWD4(0, 0)
sweepp0:
	FWD16
	JNZ sweepp0
	FWDT
	VMOVAPD Y0, Y12
	VMOVAPD Y4, Y13
	FWD4(16, 128)
sweepp2:
	FWD16
	JNZ sweepp2
	FWDT
	VADDPD Y0, Y12, Y12       // t0 + t2
	VADDPD Y4, Y13, Y13
	FWD4(8, 64)
sweepp1:
	FWD16
	JNZ sweepp1
	FWDT
	VMOVAPD Y0, Y14
	VMOVAPD Y4, Y15
	FWD4(24, 192)
sweepp3:
	FWD16
	JNZ sweepp3
	FWDT
	VADDPD Y0, Y14, Y14       // t1 + t3
	VADDPD Y4, Y15, Y15
	VADDPD Y14, Y12, Y0
	VADDPD Y15, Y13, Y4
	SUBQ   $24, R11           // the pass-3 walkers stop 3 elements past
	SUBQ   $192, R12          // the tail's first
	MOVQ   DX, R13
	ANDQ   $15, R13
	JZ     sweepupdate
sweeptail:
	VBROADCASTSD (R11), Y8
	VFMADD231PD  0(R12), Y8, Y0
	VFMADD231PD  32(R12), Y8, Y4
	ADDQ         $8, R11
	ADDQ         $64, R12
	DECQ         R13
	JNZ          sweeptail
	JMP          sweepupdate
sweepshort:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	LEAQ   (BX)(R9*8), R11
	MOVQ   R14, R12
	MOVQ   DX, R13
	SHRQ   $2, R13
	JZ     sweepshorttail
sweepshort4:
	VBROADCASTSD 0(R11), Y8
	VMULPD       0(R12), Y8, Y10
	VADDPD       Y10, Y0, Y0
	VMULPD       32(R12), Y8, Y11
	VADDPD       Y11, Y4, Y4
	VBROADCASTSD 8(R11), Y9
	VMULPD       64(R12), Y9, Y12
	VADDPD       Y12, Y1, Y1
	VMULPD       96(R12), Y9, Y13
	VADDPD       Y13, Y5, Y5
	VBROADCASTSD 16(R11), Y8
	VMULPD       128(R12), Y8, Y10
	VADDPD       Y10, Y2, Y2
	VMULPD       160(R12), Y8, Y11
	VADDPD       Y11, Y6, Y6
	VBROADCASTSD 24(R11), Y9
	VMULPD       192(R12), Y9, Y12
	VADDPD       Y12, Y3, Y3
	VMULPD       224(R12), Y9, Y13
	VADDPD       Y13, Y7, Y7
	ADDQ         $32, R11
	ADDQ         $256, R12
	DECQ         R13
	JNZ          sweepshort4
sweepshorttail:
	MOVQ DX, R13
	ANDQ $3, R13
	JZ   sweepshortsum
sweepshorttail1:
	VBROADCASTSD (R11), Y8
	VMULPD       0(R12), Y8, Y10
	VADDPD       Y10, Y0, Y0
	VMULPD       32(R12), Y8, Y11
	VADDPD       Y11, Y4, Y4
	ADDQ         $8, R11
	ADDQ         $64, R12
	DECQ         R13
	JNZ          sweepshorttail1
sweepshortsum:
	VADDPD Y1, Y0, Y0
	VADDPD Y3, Y2, Y2
	VADDPD Y2, Y0, Y0
	VADDPD Y5, Y4, Y4
	VADDPD Y7, Y6, Y6
	VADDPD Y6, Y4, Y4
sweepupdate:
	MOVQ    AX, R13
	SHLQ    $6, R13
	ADDQ    DI, R13           // element i of y
	VMOVUPD 0(R13), Y1
	VSUBPD  Y0, Y1, Y1
	VMOVUPD 32(R13), Y5
	VSUBPD  Y4, Y5, Y5
	CMPQ    AX, R10
	JGE     sweepstore
	VBROADCASTSD (BX)(AX*8), Y2
	VDIVPD  Y2, Y1, Y1
	VDIVPD  Y2, Y5, Y5
	VMULPD  Y1, Y1, Y3
	VMOVUPD 0(SI), Y6
	VADDPD  Y3, Y6, Y6
	VMOVUPD Y6, 0(SI)
	VMULPD  Y5, Y5, Y7
	VMOVUPD 32(SI), Y8
	VADDPD  Y7, Y8, Y8
	VMOVUPD Y8, 32(SI)
sweepstore:
	VMOVUPD Y1, 0(R13)
	VMOVUPD Y5, 32(R13)
	LEAQ    8(BX)(AX*8), BX   // packed row i+1
	INCQ    AX
	JMP     sweeprow
sweepnext:
	MOVQ R10, R9
	JMP  sweepblock
sweepdone:
	VZEROUPPER
	RET

// Strided lanes (dotLanesAsm, solveLanesAsm): eight vectors stored
// entry-major, entry j of lane c at y + j·S + 8c for a byte stride S (R8),
// lanes 0..3 forming group A and 4..7 group B. R9 holds 4S and R10 12S.
//
// SLDOT(labels...) sets Y0 (A) and Y4 (B) to each lane's dot of the row at
// BX with its vector over the first DX entries, from the block at DI, as
// adot orders it for length DX: below 16 dot4's four unfused sums (the
// length mod 4 tail into the first) and (s0+s1)+(s2+s3); from 16 dotAsm's
// sixteen fused residue classes, in four passes p = 0..3 over classes p,
// p+4, p+8 and p+12, each folded to t_p = (c_p + c_p+4) + (c_p+8 + c_p+12)
// as fwdSweepAsm folds them, then (t0+t2)+(t1+t3) and the length mod 16
// tail fused in ascending order. Clobbers R11..R13 and Y1..Y3, Y5..Y15.
#define SLPASS16 \
	VBROADCASTSD 0(R11), Y8; \
	VFMADD231PD  0(R12), Y8, Y0; \
	VFMADD231PD  32(R12), Y8, Y4; \
	VBROADCASTSD 32(R11), Y9; \
	VFMADD231PD  (R12)(R9*1), Y9, Y1; \
	VFMADD231PD  32(R12)(R9*1), Y9, Y5; \
	VBROADCASTSD 64(R11), Y10; \
	VFMADD231PD  (R12)(R9*2), Y10, Y2; \
	VFMADD231PD  32(R12)(R9*2), Y10, Y6; \
	VBROADCASTSD 96(R11), Y11; \
	VFMADD231PD  (R12)(R10*1), Y11, Y3; \
	VFMADD231PD  32(R12)(R10*1), Y11, Y7; \
	ADDQ         $128, R11; \
	LEAQ         (R12)(R9*4), R12; \
	DECQ         R13

#define SLZERO \
	VXORPD Y0, Y0, Y0; \
	VXORPD Y1, Y1, Y1; \
	VXORPD Y2, Y2, Y2; \
	VXORPD Y3, Y3, Y3; \
	VXORPD Y4, Y4, Y4; \
	VXORPD Y5, Y5, Y5; \
	VXORPD Y6, Y6, Y6; \
	VXORPD Y7, Y7, Y7

#define SLDOT(lshort, lshort4, lshorttail, lshorttail1, lshortsum, lp0, lp1, lp2, lp3, ltail, ldone) \
	SLZERO; \
	CMPQ         DX, $16; \
	JLT          lshort; \
	MOVQ         BX, R11; \
	MOVQ         DI, R12; \
	MOVQ         DX, R13; \
	SHRQ         $4, R13; \
lp0: \
	SLPASS16; \
	JNZ          lp0; \
	FWDT; \
	VMOVAPD      Y0, Y12; \
	VMOVAPD      Y4, Y13; \
	SLZERO; \
	LEAQ         8(BX), R11; \
	LEAQ         (DI)(R8*1), R12; \
	MOVQ         DX, R13; \
	SHRQ         $4, R13; \
lp1: \
	SLPASS16; \
	JNZ          lp1; \
	FWDT; \
	VMOVAPD      Y0, Y14; \
	VMOVAPD      Y4, Y15; \
	SLZERO; \
	LEAQ         16(BX), R11; \
	LEAQ         (DI)(R8*2), R12; \
	MOVQ         DX, R13; \
	SHRQ         $4, R13; \
lp2: \
	SLPASS16; \
	JNZ          lp2; \
	FWDT; \
	VADDPD       Y0, Y12, Y12; \
	VADDPD       Y4, Y13, Y13; \
	SLZERO; \
	LEAQ         24(BX), R11; \
	LEAQ         (DI)(R8*2), R12; \
	ADDQ         R8, R12; \
	MOVQ         DX, R13; \
	SHRQ         $4, R13; \
lp3: \
	SLPASS16; \
	JNZ          lp3; \
	FWDT; \
	VADDPD       Y0, Y14, Y14; \
	VADDPD       Y4, Y15, Y15; \
	VADDPD       Y14, Y12, Y0; \
	VADDPD       Y15, Y13, Y4; \
	SUBQ         $24, R11; \
	LEAQ         (R8)(R8*2), R13; \
	SUBQ         R13, R12; \
	MOVQ         DX, R13; \
	ANDQ         $15, R13; \
	JZ           ldone; \
ltail: \
	VBROADCASTSD (R11), Y8; \
	VFMADD231PD  0(R12), Y8, Y0; \
	VFMADD231PD  32(R12), Y8, Y4; \
	ADDQ         $8, R11; \
	ADDQ         R8, R12; \
	DECQ         R13; \
	JNZ          ltail; \
	JMP          ldone; \
lshort: \
	MOVQ         BX, R11; \
	MOVQ         DI, R12; \
	MOVQ         DX, R13; \
	SHRQ         $2, R13; \
	JZ           lshorttail; \
lshort4: \
	VBROADCASTSD 0(R11), Y8; \
	VMULPD       0(R12), Y8, Y10; \
	VADDPD       Y10, Y0, Y0; \
	VMULPD       32(R12), Y8, Y11; \
	VADDPD       Y11, Y4, Y4; \
	ADDQ         R8, R12; \
	VBROADCASTSD 8(R11), Y9; \
	VMULPD       0(R12), Y9, Y12; \
	VADDPD       Y12, Y1, Y1; \
	VMULPD       32(R12), Y9, Y13; \
	VADDPD       Y13, Y5, Y5; \
	ADDQ         R8, R12; \
	VBROADCASTSD 16(R11), Y8; \
	VMULPD       0(R12), Y8, Y10; \
	VADDPD       Y10, Y2, Y2; \
	VMULPD       32(R12), Y8, Y11; \
	VADDPD       Y11, Y6, Y6; \
	ADDQ         R8, R12; \
	VBROADCASTSD 24(R11), Y9; \
	VMULPD       0(R12), Y9, Y12; \
	VADDPD       Y12, Y3, Y3; \
	VMULPD       32(R12), Y9, Y13; \
	VADDPD       Y13, Y7, Y7; \
	ADDQ         R8, R12; \
	ADDQ         $32, R11; \
	DECQ         R13; \
	JNZ          lshort4; \
lshorttail: \
	MOVQ         DX, R13; \
	ANDQ         $3, R13; \
	JZ           lshortsum; \
lshorttail1: \
	VBROADCASTSD (R11), Y8; \
	VMULPD       0(R12), Y8, Y10; \
	VADDPD       Y10, Y0, Y0; \
	VMULPD       32(R12), Y8, Y11; \
	VADDPD       Y11, Y4, Y4; \
	ADDQ         $8, R11; \
	ADDQ         R8, R12; \
	DECQ         R13; \
	JNZ          lshorttail1; \
lshortsum: \
	VADDPD       Y1, Y0, Y0; \
	VADDPD       Y3, Y2, Y2; \
	VADDPD       Y2, Y0, Y0; \
	VADDPD       Y5, Y4, Y4; \
	VADDPD       Y7, Y6, Y6; \
	VADDPD       Y6, Y4, Y4; \
ldone:

// STRIDES loads R8 = S, the byte stride of the element stride arg, R9 = 4S
// and R10 = 12S.
#define STRIDES(arg) \
	MOVQ arg, R8; \
	SHLQ $3, R8; \
	MOVQ R8, R9; \
	SHLQ $2, R9; \
	LEAQ (R9)(R9*2), R10

// func dotLanesAsm(a *float64, n int, y *float64, stride int, out *float64, blocks int)
// For blocks >= 1 blocks of eight lanes, block b's lane c being the vector
// at y + 8(8b+c) with entries stride elements apart, out[8b+c] = SLDOT of
// a[0:n] with it: adot(a[:n], ·) for that lane, bit for bit.
TEXT ·dotLanesAsm(SB), NOSPLIT, $0-48
	MOVQ a+0(FP), BX
	MOVQ n+8(FP), DX
	MOVQ y+16(FP), DI
	STRIDES(stride+24(FP))
	MOVQ out+32(FP), CX
	MOVQ blocks+40(FP), AX
dlblock:
	SLDOT(dlshort, dlshort4, dlshorttail, dlshorttail1, dlshortsum, dlp0, dlp1, dlp2, dlp3, dltail, dldone)
	VMOVUPD Y0, 0(CX)
	VMOVUPD Y4, 32(CX)
	ADDQ    $64, CX
	ADDQ    $64, DI
	DECQ    AX
	JNZ     dlblock
	VZEROUPPER
	RET

// func solveLanesAsm(l *float64, from, to int, b, y *float64, stride int, ss *float64, blocks int)
// ForwardSolveFlatTo's rows from..to−1 for blocks >= 1 blocks of eight
// lanes laid out as dotLanesAsm's (b and y share the stride, and ss holds
// eight sums a block): per lane, row i of the packed factor l (at
// l[i(i+1)/2]) takes y_i = (b_i − SLDOT of l_i with y over i entries)/l_ii
// and ss += y_i·y_i, unfused. With from = to−1 that is BorderSolveStep and
// the running-norm update after it; with from = 0 and ss zero, the whole
// flat solve and its running sum.
TEXT ·solveLanesAsm(SB), NOSPLIT, $0-64
	STRIDES(stride+40(FP))
	MOVQ y+32(FP), DI
	MOVQ b+24(FP), SI
	SUBQ DI, SI               // SI = b − y, fixed as both advance per block
	MOVQ ss+48(FP), CX
	SUBQ DI, CX               // CX = ss − y, likewise
slblock:
	MOVQ  from+8(FP), AX      // row i
	LEAQ  1(AX), BX
	IMULQ AX, BX
	SHRQ  $1, BX
	SHLQ  $3, BX
	ADDQ  l+0(FP), BX         // BX = packed row i
	MOVQ  AX, R14
	IMULQ R8, R14
	ADDQ  DI, R14             // R14 = entry i of the block's y
slrow:
	CMPQ AX, to+16(FP)
	JGE  slnext
	MOVQ AX, DX
	SLDOT(slshort, slshort4, slshorttail, slshorttail1, slshortsum, slp0, slp1, slp2, slp3, sltail, sldone)
	VMOVUPD      (R14)(SI*1), Y1
	VSUBPD       Y0, Y1, Y1
	VMOVUPD      32(R14)(SI*1), Y5
	VSUBPD       Y4, Y5, Y5
	VBROADCASTSD (BX)(AX*8), Y2
	VDIVPD       Y2, Y1, Y1
	VDIVPD       Y2, Y5, Y5
	VMOVUPD      Y1, 0(R14)
	VMOVUPD      Y5, 32(R14)
	VMULPD       Y1, Y1, Y3
	VMOVUPD      (DI)(CX*1), Y6
	VADDPD       Y3, Y6, Y6
	VMOVUPD      Y6, (DI)(CX*1)
	VMULPD       Y5, Y5, Y7
	VMOVUPD      32(DI)(CX*1), Y8
	VADDPD       Y7, Y8, Y8
	VMOVUPD      Y8, 32(DI)(CX*1)
	LEAQ         8(BX)(AX*8), BX  // packed row i+1
	ADDQ         R8, R14
	INCQ         AX
	JMP          slrow
slnext:
	ADDQ $64, DI
	DECQ blocks+56(FP)
	JNZ  slblock
	VZEROUPPER
	RET
