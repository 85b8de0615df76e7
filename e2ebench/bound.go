package main

import (
	"fmt"
	"math"

	"ppstream/internal/nn"
	"ppstream/internal/tensor"
)

// expected is the plaintext reference for one input: the float forward
// pass, its argmax, and how far the quantised protocol's output may lie
// from it, element by element.
type expected struct {
	out    *tensor.Dense
	argmax int
	bound  []float64
}

// expect runs the float forward pass of net on x and, beside it, the
// quantised reference at factor F — the arithmetic the protocol performs
// on integers, here in float64, which holds those integers exactly:
//
//   - before every fully-connected or convolution layer the activations
//     are rounded to integers at scale F (the data provider's input
//     encoding, and its re-encryption after each non-linear stage);
//   - the weights are rounded to integers at scale F, the bias is
//     truncated at scale F², and the layer's integer output is divided
//     by F² when the data provider decrypts it;
//   - ReLU, Flatten and SoftMax run in float on the decoded values, as
//     the data provider runs them.
//
// The bound of output element i is the reference's own quantisation
// error |q_i − y_i| plus half a quantisation step, 1/(2F): a protocol
// output must be as close to the float output as the quantised
// reference is, give or take half a step. The half step leaves room for
// changes of rounding inside the program (bias rounding, a different
// merge of scale steps) while any real fault in the encrypted
// arithmetic, which scrambles whole outputs, still fails.
func expect(net *nn.Network, x *tensor.Dense, factor int64) (expected, error) {
	F := float64(factor)
	act, q := x, x
	for _, layer := range net.Layers {
		var err error
		switch l := layer.(type) {
		case *nn.FC:
			in, w, b := l.In(), l.W.Data(), l.B.Data()
			qi := roundAll(q.Data(), F)
			out := tensor.Zeros(l.Out())
			for o := range out.Data() {
				acc := math.Trunc(b[o] * F * F)
				for j, v := range qi {
					acc += math.Round(w[o*in+j]*F) * v
				}
				out.Data()[o] = acc / (F * F)
			}
			q = out
		case *nn.Conv:
			qi, err := tensor.FromSlice(roundAll(q.Data(), F), q.Shape()...)
			if err != nil {
				return expected{}, err
			}
			wi, err := tensor.FromSlice(roundAll(l.W.Data(), F), l.W.Shape()...)
			if err != nil {
				return expected{}, err
			}
			bi := tensor.Zeros(l.P.OutC)
			for o, b := range l.B.Data() {
				bi.Data()[o] = math.Trunc(b * F * F)
			}
			out, err := tensor.Conv2D(qi, wi, bi, l.P)
			if err != nil {
				return expected{}, err
			}
			for i, v := range out.Data() {
				out.Data()[i] = v / (F * F)
			}
			q = out
		case *nn.ReLU, *nn.Flatten, *nn.SoftMax:
			if q, err = layer.Forward(q); err != nil {
				return expected{}, err
			}
		default:
			return expected{}, fmt.Errorf("no quantised reference for layer %s (%T)", layer.Name(), layer)
		}
		if act, err = layer.Forward(act); err != nil {
			return expected{}, err
		}
	}
	bound := make([]float64, len(act.Data()))
	for i, y := range act.Data() {
		bound[i] = math.Abs(q.Data()[i]-y) + 1/(2*F)
	}
	return expected{out: act, argmax: tensor.ArgMax(act), bound: bound}, nil
}

// roundAll returns v scaled by F and rounded to integers.
func roundAll(v []float64, F float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = math.Round(x * F)
	}
	return out
}

// check compares a protocol output with the reference: same argmax, and
// every element within the bound.
func (e expected) check(got *tensor.Dense) error {
	if got == nil {
		return fmt.Errorf("no output")
	}
	want, have := e.out.Data(), got.Data()
	if len(have) != len(want) {
		return fmt.Errorf("output has %d elements, want %d", len(have), len(want))
	}
	if a := tensor.ArgMax(got); a != e.argmax {
		return fmt.Errorf("argmax %d, float forward pass gives %d", a, e.argmax)
	}
	for i := range want {
		if d := math.Abs(have[i] - want[i]); !(d <= e.bound[i]) {
			return fmt.Errorf("element %d off by %.6g, bound %.6g", i, d, e.bound[i])
		}
	}
	return nil
}

// maxError is the largest element-wise difference between got and the
// reference, for the reference figures.
func (e expected) maxError(got *tensor.Dense) float64 {
	m := 0.0
	for i, v := range got.Data() {
		m = math.Max(m, math.Abs(v-e.out.Data()[i]))
	}
	return m
}
