//! A conv -> batch norm -> leaky relu -> bmm -> tanh chain through the tape
//! gives parameter gradients bit-equal to the same chain run by hand with
//! the pre-rewrite backward bodies — which copied every value they read
//! (`Var::value()`) and built masks and derivative temporaries — while
//! drawing strictly fewer buffers from the pool.
//!
//! One test in its own binary: `hfta_mem::stats()` is process-global, so no
//! other test may allocate while it counts.

use hfta_kernels::set_num_threads;
use hfta_nn::{Parameter, Tape};
use hfta_tensor::conv::{conv2d, conv2d_grad_input, conv2d_grad_weight, ConvCfg};
use hfta_tensor::norm::{batch_norm_backward, batch_norm_train};
use hfta_tensor::{Rng, Tensor};

const SLOPE: f32 = 0.2;
const EPS: f32 = 1e-5;

struct Chain {
    x: Parameter,
    w: Parameter,
    gamma: Parameter,
    beta: Parameter,
    v: Parameter,
    seed: Tensor,
    cfg: ConvCfg,
}

impl Chain {
    fn params(&self) -> [&Parameter; 5] {
        [&self.x, &self.w, &self.gamma, &self.beta, &self.v]
    }

    fn zero_grads(&self) {
        self.params().iter().for_each(|p| p.zero_grad());
    }

    fn grads(&self) -> Vec<Vec<u32>> {
        self.params()
            .iter()
            .map(|p| {
                p.grad_cloned()
                    .as_slice()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect()
            })
            .collect()
    }

    /// Through the tape.
    fn tape(&self) {
        let tape = Tape::new();
        let h = tape
            .param(&self.x)
            .conv2d(&tape.param(&self.w), None, self.cfg);
        let (h, _) = h.batch_norm(&tape.param(&self.gamma), &tape.param(&self.beta), EPS, None);
        let h = h.leaky_relu(SLOPE).reshape(&[2, 6, 64]);
        let y = h.bmm(&tape.param(&self.v)).tanh();
        y.backward_with(self.seed.clone());
    }

    /// By hand, with the old closures' copies and multi-pass bodies.
    fn oracle(&self) {
        // `Tape::param` copies each parameter onto the tape.
        let (x, w) = (self.x.value_cloned(), self.w.value_cloned());
        let (gamma, beta, v) = (
            self.gamma.value_cloned(),
            self.beta.value_cloned(),
            self.v.value_cloned(),
        );
        // conv2d: `self.value()` and `weight.value()` captured.
        let (xc, wc) = (x.clone(), w.clone());
        let h1 = conv2d(&xc, &wc, None, self.cfg);
        // batch_norm: `gamma.value()` captured, the output cloned onto the tape.
        let gv = gamma.clone();
        let ctx = batch_norm_train(&h1, &gv, &beta, EPS);
        let h2 = ctx.output.clone();
        // leaky_relu: a derivative mask, then the forward pass.
        let dmask = h2.map(|x| if x >= 0.0 { 1.0 } else { SLOPE });
        let h3 = h2.leaky_relu(SLOPE);
        let h4 = h3.reshape(&[2, 6, 64]);
        // bmm: both operands captured by value.
        let (a, b) = (h4.clone(), v.clone());
        let h5 = a.bmm(&b);
        // tanh: the output cloned into the closure.
        let y = h5.tanh();
        let yc = y.clone();

        let g = self.seed.clone();
        let g = g.mul(&yc.square().neg().add_scalar(1.0));
        let (g_h4, g_v) = (g.bmm_nt(&b), a.bmm_tn(&g));
        let g_h3 = g_h4.reshape(&[2, 6, 8, 8]);
        let g_h2 = g_h3.mul(&dmask);
        let (g_h1, g_gamma, g_beta) = batch_norm_backward(&g_h2, &ctx, &gv);
        let g_x = conv2d_grad_input(&wc, &g_h1, (8, 8), 4, self.cfg);
        let g_w = conv2d_grad_weight(&xc, &g_h1, (3, 3), self.cfg);
        for (p, g) in self
            .params()
            .into_iter()
            .zip([g_x, g_w, g_gamma, g_beta, g_v])
        {
            p.accumulate_grad(&g);
        }
    }
}

/// Buffers the pool hands out while `f` runs (recycled ones; the pool is
/// warm, so there are no fresh ones to count).
fn pool_draws(f: impl Fn()) -> u64 {
    f();
    let before = hfta_mem::stats();
    f();
    let after = hfta_mem::stats();
    assert_eq!(
        after.pool_fresh_allocs, before.pool_fresh_allocs,
        "pool not warm"
    );
    after.pool_reuses - before.pool_reuses
}

#[test]
fn chain_grads_match_the_copying_oracle_with_fewer_pool_draws() {
    let mut rng = Rng::seed_from(7);
    let chain = Chain {
        x: Parameter::new(rng.randn([2, 4, 8, 8]), "x"),
        w: Parameter::new(rng.randn([6, 2, 3, 3]).mul_scalar(0.4), "w"),
        gamma: Parameter::new(rng.rand([6], 0.5, 1.5), "gamma"),
        beta: Parameter::new(rng.randn([6]), "beta"),
        v: Parameter::new(rng.randn([2, 64, 5]).mul_scalar(0.2), "v"),
        seed: rng.randn([2, 6, 5]),
        cfg: ConvCfg::square(1, 1, 2),
    };
    let before = hfta_kernels::num_threads();
    for threads in [1, 4] {
        set_num_threads(threads);
        chain.zero_grads();
        chain.tape();
        let got = chain.grads();
        chain.zero_grads();
        chain.oracle();
        assert_eq!(got, chain.grads(), "parameter grads at {threads} threads");

        let tape_draws = pool_draws(|| chain.tape());
        let oracle_draws = pool_draws(|| chain.oracle());
        assert!(
            tape_draws < oracle_draws,
            "tape drew {tape_draws} pool buffers, the copying oracle {oracle_draws}"
        );
    }
    set_num_threads(before);
}
