// Four-lane AVX2+FMA kernels (lanes.go). Every vector lane replays, one
// operation after another, the scalar code a single value runs elsewhere in
// the tree, so each lane's result has exactly the bits of that scalar code:
//
//   - EXP4 is math.Exp's amd64 FMA path ($GOROOT/src/math/exp_amd64.s,
//     label avxfma) per lane, for arguments in [-708, 709], where that path
//     takes neither its denormal nor its overflow branch;
//   - fwdLanesAsm's dot is dotAsm (n >= 16) or dot4 (n < 16) per lane;
//   - rbfRowsAsm is the kernel package's unfused RBF row expression.
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

// INRANGE sets BX to 15 exactly when every lane of Y0 lies in
// [EXPLO, EXPHI]; a NaN lane compares false. Clobbers Y8, Y9.
#define INRANGE \
	VCMPPD $0x1d, EXPLO, Y0, Y8; \
	VCMPPD $0x12, EXPHI, Y0, Y9; \
	VANDPD Y9, Y8, Y8; \
	VMOVMSKPD Y8, BX

// EXP4 replaces each lane x of Y0 with math.Exp(x), x in [EXPLO, EXPHI]:
// k = round(x·log2e) (CVTSD2SL's rounding), r = (x − k·ln2U − k·ln2L)/16
// with fused steps, the degree-8 polynomial as a chain of FMAs, four
// squarings y·(y+2) (the last fused with +1), then the product with 2^k
// built from the exponent bits. Clobbers Y1, Y2, Y3.
#define EXP4 \
	VMULPD LOG2E, Y0, Y1; \
	VCVTPD2DQY Y1, X1; \
	VCVTDQ2PD X1, Y2; \
	VFNMADD231PD LN2U, Y2, Y0; \
	VFNMADD231PD LN2L, Y2, Y0; \
	VMULPD SIXTEENTH, Y0, Y0; \
	VMOVUPD lanesc<>+128(SB), Y3; \
	VFMADD213PD lanesc<>+160(SB), Y0, Y3; \
	VFMADD213PD lanesc<>+192(SB), Y0, Y3; \
	VFMADD213PD lanesc<>+224(SB), Y0, Y3; \
	VFMADD213PD lanesc<>+256(SB), Y0, Y3; \
	VFMADD213PD lanesc<>+288(SB), Y0, Y3; \
	VFMADD213PD lanesc<>+320(SB), Y0, Y3; \
	VFMADD213PD ONE, Y0, Y3; \
	VMULPD Y3, Y0, Y0; \
	VADDPD TWO, Y0, Y3; \
	VMULPD Y3, Y0, Y0; \
	VADDPD TWO, Y0, Y3; \
	VMULPD Y3, Y0, Y0; \
	VADDPD TWO, Y0, Y3; \
	VMULPD Y3, Y0, Y0; \
	VADDPD TWO, Y0, Y3; \
	VFMADD213PD ONE, Y3, Y0; \
	VPADDD BIAS, X1, X1; \
	VPMOVZXDQ X1, Y2; \
	VPSLLQ $52, Y2, Y2; \
	VMULPD Y2, Y0, Y0

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
	INRANGE
	CMPQ BX, $15
	JNE  expdone
	EXP4
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
	INRANGE
	CMPQ BX, $15
	JNE  rbfdone
	EXP4
	VMULPD Y0, Y12, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ $4, AX
	ADDQ $32, R11
	JMP  rbfloop
rbfdone:
	MOVQ AX, ret+80(FP)
	VZEROUPPER
	RET

// func fwdLanesAsm(a, y *float64, n int, yi *float64, d float64, div bool)
// One forward-substitution row for four interleaved right-hand sides
// (y[4j+c] is element j of lane c): s = a·y per lane in adot's order, then
// yi = (yi − s)/d when div, else yi −= s.
//
// n >= 16 replays dotAsm: residue class r (mod 16) of the row accumulates
// into its own register with fused steps, classes 0..7 in one sweep and
// 8..15 in a second (sixteen accumulators and a broadcast do not fit in
// sixteen registers; the classes are independent chains, so the split
// changes no bit). The classes combine as dotAsm's lanes do,
// ((c0+c4)+(c8+c12)) etc., then (t0+t2)+(t1+t3), and the n mod 16 tail is
// fused in ascending order. n < 16 replays dot4's unfused four
// accumulators and (s0+s1)+(s2+s3).
TEXT ·fwdLanesAsm(SB), NOSPLIT, $0-41
	MOVQ a+0(FP), SI
	MOVQ y+8(FP), DI
	MOVQ n+16(FP), CX
	CMPQ CX, $16
	JLT  fwdshort
	MOVQ CX, DX
	SHRQ $4, DX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ SI, R9
	MOVQ DI, R10
	MOVQ DX, R11
fwdlo:
	VBROADCASTSD 0(R9), Y8
	VFMADD231PD  0(R10), Y8, Y0
	VBROADCASTSD 8(R9), Y9
	VFMADD231PD  32(R10), Y9, Y1
	VBROADCASTSD 16(R9), Y10
	VFMADD231PD  64(R10), Y10, Y2
	VBROADCASTSD 24(R9), Y11
	VFMADD231PD  96(R10), Y11, Y3
	VBROADCASTSD 32(R9), Y8
	VFMADD231PD  128(R10), Y8, Y4
	VBROADCASTSD 40(R9), Y9
	VFMADD231PD  160(R10), Y9, Y5
	VBROADCASTSD 48(R9), Y10
	VFMADD231PD  192(R10), Y10, Y6
	VBROADCASTSD 56(R9), Y11
	VFMADD231PD  224(R10), Y11, Y7
	ADDQ $128, R9
	ADDQ $512, R10
	DECQ R11
	JNZ  fwdlo
	VADDPD Y4, Y0, Y0
	VADDPD Y5, Y1, Y1
	VADDPD Y6, Y2, Y2
	VADDPD Y7, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9
	VXORPD Y10, Y10, Y10
	VXORPD Y11, Y11, Y11
	MOVQ SI, R9
	MOVQ DI, R10
	MOVQ DX, R11
fwdhi:
	VBROADCASTSD 64(R9), Y12
	VFMADD231PD  256(R10), Y12, Y4
	VBROADCASTSD 72(R9), Y13
	VFMADD231PD  288(R10), Y13, Y5
	VBROADCASTSD 80(R9), Y14
	VFMADD231PD  320(R10), Y14, Y6
	VBROADCASTSD 88(R9), Y15
	VFMADD231PD  352(R10), Y15, Y7
	VBROADCASTSD 96(R9), Y12
	VFMADD231PD  384(R10), Y12, Y8
	VBROADCASTSD 104(R9), Y13
	VFMADD231PD  416(R10), Y13, Y9
	VBROADCASTSD 112(R9), Y14
	VFMADD231PD  448(R10), Y14, Y10
	VBROADCASTSD 120(R9), Y15
	VFMADD231PD  480(R10), Y15, Y11
	ADDQ $128, R9
	ADDQ $512, R10
	DECQ R11
	JNZ  fwdhi
	VADDPD Y8, Y4, Y4
	VADDPD Y9, Y5, Y5
	VADDPD Y10, Y6, Y6
	VADDPD Y11, Y7, Y7
	VADDPD Y4, Y0, Y0
	VADDPD Y5, Y1, Y1
	VADDPD Y6, Y2, Y2
	VADDPD Y7, Y3, Y3
	VADDPD Y2, Y0, Y0
	VADDPD Y3, Y1, Y1
	VADDPD Y1, Y0, Y0
	ANDQ $15, CX
	JZ   fwdupdate
fwdtail:
	VBROADCASTSD (R9), Y1
	VFMADD231PD  (R10), Y1, Y0
	ADDQ $8, R9
	ADDQ $32, R10
	DECQ CX
	JNZ  fwdtail
	JMP  fwdupdate
fwdshort:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ SI, R9
	MOVQ DI, R10
	MOVQ CX, DX
	SHRQ $2, DX
	JZ   fwdshorttail
fwdshort4:
	VBROADCASTSD 0(R9), Y4
	VMULPD       0(R10), Y4, Y4
	VADDPD       Y4, Y0, Y0
	VBROADCASTSD 8(R9), Y5
	VMULPD       32(R10), Y5, Y5
	VADDPD       Y5, Y1, Y1
	VBROADCASTSD 16(R9), Y6
	VMULPD       64(R10), Y6, Y6
	VADDPD       Y6, Y2, Y2
	VBROADCASTSD 24(R9), Y7
	VMULPD       96(R10), Y7, Y7
	VADDPD       Y7, Y3, Y3
	ADDQ $32, R9
	ADDQ $128, R10
	DECQ DX
	JNZ  fwdshort4
fwdshorttail:
	ANDQ $3, CX
	JZ   fwdshortsum
fwdshorttail1:
	VBROADCASTSD (R9), Y4
	VMULPD       (R10), Y4, Y4
	VADDPD       Y4, Y0, Y0
	ADDQ $8, R9
	ADDQ $32, R10
	DECQ CX
	JNZ  fwdshorttail1
fwdshortsum:
	VADDPD Y1, Y0, Y0
	VADDPD Y3, Y2, Y2
	VADDPD Y2, Y0, Y0
fwdupdate:
	MOVQ    yi+24(FP), R8
	VMOVUPD (R8), Y1
	VSUBPD  Y0, Y1, Y1
	MOVBLZX div+40(FP), AX
	TESTQ   AX, AX
	JZ      fwdstore
	VBROADCASTSD d+32(FP), Y2
	VDIVPD  Y2, Y1, Y1
fwdstore:
	VMOVUPD Y1, (R8)
	VZEROUPPER
	RET
