// Portable scalar kernel table. Every entry is the one definition in
// simd_elementwise.h, compiled at the portable ISA; the AVX2 table gives
// the same bits (DESIGN.md §5f).
#include "tensor/simd_elementwise.h"
#include "tensor/simd_internal.h"

namespace sagdfn::tensor::simd::internal {

const Kernels& ScalarKernels() {
  static const Kernels table = {
      .add = Add,
      .sub = Sub,
      .mul = Mul,
      .div = Div,
      .add_s = AddS,
      .sub_s = SubS,
      .rsub_s = RSubS,
      .mul_s = MulS,
      .div_s = DivS,
      .rdiv_s = RDivS,
      .acc_add = AccAdd,
      .max_into = MaxInto,
      .neg = Neg,
      .vabs = VAbs,
      .relu = Relu,
      .vexp = VExp,
      .sigmoid = Sigmoid,
      .vtanh = VTanh,
      .sigmoid_grad = SigmoidGrad,
      .tanh_grad = TanhGrad,
      .relu_grad = ReluGrad,
      .axpy = Axpy,
      .scale = Scale,
      .dot = Dot,
      .sum = Sum,
      .diffuse_rows = DiffuseRows,
      .matmul_rows = MatMulRows,
      .gru_blend = GruBlend,
      .sigmoid_mul = SigmoidMul,
      .gru_tail = GruTail,
      .sigmoid_mul_grad = SigmoidMulGrad,
      .gru_tail_grad = GruTailGrad,
      .gru_step = GruStep,
      .gru_step_grad = GruStepGrad,
      .masked_err = MaskedErr,
  };
  return table;
}

}  // namespace sagdfn::tensor::simd::internal
