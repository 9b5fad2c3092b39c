//! The paper's parameter algebra.
//!
//! Everything in the constructions is driven by four derived sequences:
//!
//! * the number of phases `ℓ`;
//! * degree thresholds `deg_i` (when is a cluster *popular*);
//! * distance thresholds `δ_i` (when are clusters *neighboring*);
//! * radius bounds `R_i` (certified cluster radii, Lemmas 2.5 / 3.8).
//!
//! Three schedules are reproduced:
//!
//! * [`CentralizedParams`] — §2.1.2: `ℓ = ⌈log₂((κ+1)/2)⌉`,
//!   `deg_i = n^(2^i/κ)`, `R_{i+1} = 2·δ_i + R_i`.
//! * [`DistributedParams`] — §3.1.1: exponential-growth phases up to
//!   `i₀ = ⌊log₂ κρ⌋` then fixed growth at `n^ρ`;
//!   `R_{i+1} = (4/ρ + 2)·δ_i + R_i` (the ruling-forest radius).
//! * [`SpannerParams`] — §4: the EN17a degree sequence with
//!   `γ = max(2, log log κ)`, a transition phase at `n^(ρ/2)`, then `n^ρ`.
//!
//! # Integer thresholds and certified stretch
//!
//! The paper treats `δ_i` as reals; hop distances are integers, so we use
//! `δ_i = ⌈(1/ε)^i⌉ + 2·R_i`. All the stretch lemmas only need the
//! *inequalities* `δ_i ≥ (1/ε)^i + 2R_i` and the recursions as stated, so the
//! certified pair `(α_ℓ, β_ℓ)` computed from the exact recursions
//! (`β_i = 2β_{i−1} + 6R_i`, `α_i = α_{i−1} + ε^i/(1−ε^i)·β_i`) is a sound
//! upper bound for what the code actually builds — and much tighter than the
//! closed forms, which we also expose for comparison with the paper's
//! statements.

use crate::error::ParamError;
use crate::sai::PhaseNumbers;
use usnae_graph::Dist;

/// Saturation cap for distance thresholds. Any threshold beyond this exceeds
/// every graph diameter we can simulate, so capping preserves behaviour while
/// avoiding `u64` overflow in the `(1/ε)^i` growth.
pub const DELTA_CAP: Dist = 1 << 50;

fn sat_add(a: Dist, b: Dist) -> Dist {
    a.saturating_add(b).min(DELTA_CAP)
}

fn sat_mul(a: Dist, b: Dist) -> Dist {
    a.saturating_mul(b).min(DELTA_CAP)
}

/// Ceil of `x` as a saturated distance.
fn ceil_dist(x: f64) -> Dist {
    if x >= DELTA_CAP as f64 {
        DELTA_CAP
    } else {
        x.ceil() as Dist
    }
}

/// One phase's distance/radius thresholds plus the internal ε they were
/// derived from. Shared by all three schedules.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseSchedule {
    /// Number of the last phase `ℓ`; phases are `0..=ell`.
    pub ell: usize,
    /// `δ_i = ⌈(1/ε)^i⌉ + 2·R_i` for `i ∈ [0, ℓ]`.
    pub delta: Vec<Dist>,
    /// `R_i` for `i ∈ [0, ℓ+1]` (`R_{ℓ+1}` bounds final supercluster radii).
    pub radius: Vec<Dist>,
    /// The internal (rescaled) ε driving `(1/ε)^i`.
    pub eps_internal: f64,
}

impl PhaseSchedule {
    /// Builds the schedule with radius recursion
    /// `R_{i+1} = radius_multiplier·δ_i + R_i`, `R_0 = 0`.
    ///
    /// `radius_multiplier` is 2 for the centralized construction (§2.1.2)
    /// and `⌈4/ρ⌉ + 2` for the distributed one (§3.1.1; the ceiling only
    /// enlarges the certified radii, keeping every bound valid).
    pub fn build(ell: usize, eps_internal: f64, radius_multiplier: Dist) -> Self {
        assert!(
            eps_internal > 0.0 && eps_internal < 1.0,
            "internal epsilon in (0,1)"
        );
        let inv_eps = 1.0 / eps_internal;
        let mut delta = Vec::with_capacity(ell + 1);
        let mut radius = Vec::with_capacity(ell + 2);
        radius.push(0); // R_0
        for i in 0..=ell {
            let pow = ceil_dist(inv_eps.powi(i as i32));
            let d_i = sat_add(pow, sat_mul(2, radius[i]));
            delta.push(d_i);
            radius.push(sat_add(sat_mul(radius_multiplier, d_i), radius[i]));
        }
        PhaseSchedule {
            ell,
            delta,
            radius,
            eps_internal,
        }
    }

    /// Certified additive terms `β_i = 2β_{i−1} + 6R_i` (Lemma 2.12), for
    /// `i ∈ [0, ℓ]`, computed from the *actual* integer radii.
    pub fn beta_sequence(&self) -> Vec<f64> {
        let mut beta = vec![0.0];
        for i in 1..=self.ell {
            beta.push(2.0 * beta[i - 1] + 6.0 * self.radius[i] as f64);
        }
        beta
    }

    /// Certified multiplicative terms `α_i = α_{i−1} + ε^i/(1−ε^i)·β_i`.
    pub fn alpha_sequence(&self) -> Vec<f64> {
        let beta = self.beta_sequence();
        let mut alpha = vec![1.0];
        for i in 1..=self.ell {
            let e = self.eps_internal.powi(i as i32);
            alpha.push(alpha[i - 1] + e / (1.0 - e) * beta[i]);
        }
        alpha
    }

    /// The certified stretch pair `(α_ℓ, β_ℓ)`: every emulator built with
    /// this schedule satisfies `d_H(u,v) ≤ α_ℓ·d_G(u,v) + β_ℓ`
    /// (Corollary 2.11 with the exact recursions).
    pub fn certified_stretch(&self) -> (f64, f64) {
        (
            *self
                .alpha_sequence()
                .last()
                .expect("alpha sequence nonempty"),
            *self.beta_sequence().last().expect("beta sequence nonempty"),
        )
    }
}

/// Exponentiation `n^e` as `f64` for thresholds/bounds.
fn npow(n: usize, e: f64) -> f64 {
    (n as f64).powf(e)
}

/// Parameters for the centralized Algorithm 1 (§2.1.2).
///
/// # Example
///
/// ```
/// use usnae_core::params::CentralizedParams;
///
/// # fn main() -> Result<(), usnae_core::ParamError> {
/// let p = CentralizedParams::new(0.5, 4)?;
/// assert_eq!(p.ell(), 2); // ⌈log₂(5/2)⌉
/// assert!((p.size_bound(16) - 16f64.powf(1.25)).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CentralizedParams {
    epsilon: f64,
    kappa: u32,
    schedule: PhaseSchedule,
}

impl CentralizedParams {
    /// Validates `ε ∈ (0,1)`, `κ ≥ 2` and derives the §2.1.2 schedule with
    /// the §2.2.4 rescaling `ε_internal = ε/(34·ℓ)`.
    ///
    /// # Errors
    ///
    /// [`ParamError::EpsilonOutOfRange`] or [`ParamError::KappaTooSmall`].
    pub fn new(epsilon: f64, kappa: u32) -> Result<Self, ParamError> {
        Self::build(epsilon, kappa, true)
    }

    /// Like [`new`](Self::new) but **skips the §2.2.4 rescaling**: `ε` is
    /// used directly as the internal ε driving `δ_i = (1/ε)^i + 2R_i`.
    ///
    /// The certified `(α, β)` from the exact recursions remains sound (the
    /// stretch lemmas never use the rescaling), but `α` may exceed `1 + ε`.
    /// Experiments use this mode to surface multi-phase structure at
    /// simulable sizes: the rescaled `ε/(34ℓ)` makes `δ_1` exceed the
    /// diameter of any laptop-scale graph, collapsing every run into a
    /// single superclustering event.
    ///
    /// # Errors
    ///
    /// Same as [`new`](Self::new).
    pub fn with_raw_epsilon(epsilon: f64, kappa: u32) -> Result<Self, ParamError> {
        Self::build(epsilon, kappa, false)
    }

    fn build(epsilon: f64, kappa: u32, rescale: bool) -> Result<Self, ParamError> {
        if !(epsilon > 0.0 && epsilon < 1.0 && epsilon.is_finite()) {
            return Err(ParamError::EpsilonOutOfRange { epsilon });
        }
        if kappa < 2 {
            return Err(ParamError::KappaTooSmall { kappa });
        }
        let ell = (((kappa as f64 + 1.0) / 2.0).log2().ceil() as usize).max(1);
        let eps_internal = if rescale {
            epsilon / (34.0 * ell as f64)
        } else {
            epsilon
        };
        let schedule = PhaseSchedule::build(ell, eps_internal, 2);
        Ok(CentralizedParams {
            epsilon,
            kappa,
            schedule,
        })
    }

    /// The public (rescaled) ε: the multiplicative stretch is `1 + ε`.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// The sparsity parameter κ.
    pub fn kappa(&self) -> u32 {
        self.kappa
    }

    /// Number of the last phase, `ℓ = ⌈log₂((κ+1)/2)⌉` (≥ 1).
    pub fn ell(&self) -> usize {
        self.schedule.ell
    }

    /// The derived per-phase schedule.
    pub fn schedule(&self) -> &PhaseSchedule {
        &self.schedule
    }

    /// Popularity threshold `deg_i = n^(2^i/κ)` (real-valued, §2.1.2).
    pub fn degree_threshold(&self, i: usize, n: usize) -> f64 {
        npow(n, 2f64.powi(i as i32) / self.kappa as f64)
    }

    /// Smallest neighbor count that makes a cluster popular in phase `i`
    /// (`⌈deg_i⌉`, since counts are integers).
    pub fn degree_cap(&self, i: usize, n: usize) -> usize {
        self.degree_threshold(i, n).ceil() as usize
    }

    /// Distance threshold `δ_i`.
    pub fn delta(&self, i: usize) -> Dist {
        self.schedule.delta[i]
    }

    /// The headline size bound `n^(1+1/κ)` (Lemma 2.4; leading constant 1).
    pub fn size_bound(&self, n: usize) -> f64 {
        npow(n, 1.0 + 1.0 / self.kappa as f64)
    }

    /// Certified `(α, β)` for emulators built with these parameters; `α ≤
    /// 1 + ε` by the rescaling.
    pub fn certified_stretch(&self) -> (f64, f64) {
        self.schedule.certified_stretch()
    }

    /// The paper's closed-form additive term
    /// `β = 30·(34ℓ/ε)^(ℓ−1)` (§2.2.4) — looser than
    /// [`certified_stretch`](Self::certified_stretch), reported for
    /// comparison against Corollary 2.14.
    pub fn beta_closed_form(&self) -> f64 {
        let ell = self.ell() as f64;
        30.0 * (34.0 * ell / self.epsilon).powf(ell - 1.0)
    }
}

/// Parameters for the distributed CONGEST construction (§3.1.1) and its fast
/// centralized simulation (§3.3).
///
/// # Example
///
/// ```
/// use usnae_core::params::DistributedParams;
///
/// # fn main() -> Result<(), usnae_core::ParamError> {
/// let p = DistributedParams::new(0.5, 4, 0.5)?;
/// assert_eq!(p.i0(), 1); // ⌊log₂(κρ)⌋ = ⌊log₂ 2⌋
/// assert_eq!(p.ell(), 3); // i₀ + ⌈(κ+1)/(κρ)⌉ − 1
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DistributedParams {
    epsilon: f64,
    kappa: u32,
    rho: f64,
    i0: usize,
    schedule: PhaseSchedule,
}

impl DistributedParams {
    /// Validates `ε ∈ (0,1)`, `κ ≥ 2`, `1/κ < ρ ≤ 1/2` and derives the
    /// §3.1.1 schedule with rescaling `ε_internal = ε·ρ/(90·ℓ)`.
    ///
    /// # Errors
    ///
    /// [`ParamError`] variants on each violated precondition.
    pub fn new(epsilon: f64, kappa: u32, rho: f64) -> Result<Self, ParamError> {
        Self::build(epsilon, kappa, rho, true)
    }

    /// Like [`new`](Self::new) but skipping the §3.2.4 rescaling (`ε` is
    /// used as the internal ε directly); see
    /// [`CentralizedParams::with_raw_epsilon`] for when this is appropriate.
    ///
    /// # Errors
    ///
    /// Same as [`new`](Self::new).
    pub fn with_raw_epsilon(epsilon: f64, kappa: u32, rho: f64) -> Result<Self, ParamError> {
        Self::build(epsilon, kappa, rho, false)
    }

    fn build(epsilon: f64, kappa: u32, rho: f64, rescale: bool) -> Result<Self, ParamError> {
        if !(epsilon > 0.0 && epsilon < 1.0 && epsilon.is_finite()) {
            return Err(ParamError::EpsilonOutOfRange { epsilon });
        }
        if kappa < 2 {
            return Err(ParamError::KappaTooSmall { kappa });
        }
        if !(rho >= 1.0 / kappa as f64 && rho <= 0.5 && rho.is_finite()) {
            return Err(ParamError::RhoOutOfRange { rho, kappa });
        }
        let kr = kappa as f64 * rho;
        let i0 = if kr >= 2.0 {
            kr.log2().floor() as usize
        } else {
            0
        };
        let ell = i0 + ((kappa as f64 + 1.0) / kr).ceil() as usize - 1;
        let ell = ell.max(1);
        let eps_internal = if rescale {
            epsilon * rho / (90.0 * ell as f64)
        } else {
            epsilon
        };
        let radius_multiplier = (4.0 / rho).ceil() as Dist + 2;
        let schedule = PhaseSchedule::build(ell, eps_internal, radius_multiplier);
        Ok(DistributedParams {
            epsilon,
            kappa,
            rho,
            i0,
            schedule,
        })
    }

    /// The public (rescaled) ε.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// The sparsity parameter κ.
    pub fn kappa(&self) -> u32 {
        self.kappa
    }

    /// The running-time exponent ρ (`O(β·n^ρ)` rounds).
    pub fn rho(&self) -> f64 {
        self.rho
    }

    /// Last phase of the exponential growth stage, `i₀ = ⌊log₂ κρ⌋`.
    pub fn i0(&self) -> usize {
        self.i0
    }

    /// Number of the last phase, `ℓ = i₀ + ⌈(κ+1)/(κρ)⌉ − 1`.
    pub fn ell(&self) -> usize {
        self.schedule.ell
    }

    /// The derived per-phase schedule.
    pub fn schedule(&self) -> &PhaseSchedule {
        &self.schedule
    }

    /// `deg_i`: `n^(2^i/κ)` during exponential growth (`i ≤ i₀`), `n^ρ`
    /// afterwards. Satisfies `deg_{i+1} ≤ deg_i²` everywhere — the property
    /// the telescoping size bound (eq. 18) needs.
    pub fn degree_threshold(&self, i: usize, n: usize) -> f64 {
        if i <= self.i0 {
            npow(n, 2f64.powi(i as i32) / self.kappa as f64)
        } else {
            npow(n, self.rho)
        }
    }

    /// `⌈deg_i⌉`, the integer popularity threshold.
    pub fn degree_cap(&self, i: usize, n: usize) -> usize {
        self.degree_threshold(i, n).ceil() as usize
    }

    /// Distance threshold `δ_i`.
    pub fn delta(&self, i: usize) -> Dist {
        self.schedule.delta[i]
    }

    /// Ruling-set separation `sep_i = 2δ_i + 1` (§3.1.2 Task 2).
    pub fn separation(&self, i: usize) -> Dist {
        sat_add(sat_mul(2, self.delta(i)), 1)
    }

    /// Ruling-set domination radius `rul_i = (2/ρ)·δ_i`.
    pub fn ruling_radius(&self, i: usize) -> Dist {
        ceil_dist(2.0 / self.rho * self.delta(i) as f64)
    }

    /// BFS ruling-forest depth `rul_i + δ_i` (§3.1.2 Task 3).
    pub fn forest_depth(&self, i: usize) -> Dist {
        sat_add(self.ruling_radius(i), self.delta(i))
    }

    /// The numbers of phases `0..=ℓ` for [`crate::sai::run_phases`] (the
    /// §3.3 simulation and the EM19 baseline).
    pub fn phase_numbers(&self, n: usize) -> Vec<PhaseNumbers> {
        (0..=self.ell())
            .map(|i| PhaseNumbers {
                delta: self.delta(i),
                degree_threshold: self.degree_threshold(i, n),
                forest_depth: self.forest_depth(i),
            })
            .collect()
    }

    /// The headline size bound `n^(1+1/κ)` (eq. 19).
    pub fn size_bound(&self, n: usize) -> f64 {
        npow(n, 1.0 + 1.0 / self.kappa as f64)
    }

    /// Certified `(α, β)` for emulators built with these parameters.
    pub fn certified_stretch(&self) -> (f64, f64) {
        self.schedule.certified_stretch()
    }

    /// The paper's closed-form additive term
    /// `β = (75/ρ)·(90ℓ/(ε·ρ))^(ℓ−1)` (§3.2.4).
    pub fn beta_closed_form(&self) -> f64 {
        let ell = self.ell() as f64;
        75.0 / self.rho * (90.0 * ell / (self.epsilon * self.rho)).powf(ell - 1.0)
    }

    /// The round budget the paper charges: `O(n^ρ/ε_int^ℓ)` (eq. 27),
    /// reported without the hidden constant.
    pub fn round_budget(&self, n: usize) -> f64 {
        npow(n, self.rho) / self.schedule.eps_internal.powi(self.ell() as i32)
    }
}

/// Parameters for the §4 near-additive **spanner** construction.
///
/// Uses the EN17a degree sequence: `γ = max(2, log₂log₂ κ)`,
/// `deg_i = n^((2^i−1)/(γκ) + 1/κ)` for `i ∈ [0, i₀]`, a transition phase at
/// `n^(ρ/2)`, then fixed growth at `n^ρ`.
///
/// # Example
///
/// ```
/// use usnae_core::params::SpannerParams;
///
/// # fn main() -> Result<(), usnae_core::ParamError> {
/// let p = SpannerParams::new(0.5, 8, 0.5)?;
/// assert!(p.ell() >= p.i0() + 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SpannerParams {
    epsilon: f64,
    kappa: u32,
    rho: f64,
    gamma: f64,
    i0: usize,
    schedule: PhaseSchedule,
}

impl SpannerParams {
    /// Validates parameters (`ε ∈ (0,1)`, `κ ≥ 2`, `1/κ ≤ ρ ≤ 1/2`) and
    /// derives the §4 schedule.
    ///
    /// # Errors
    ///
    /// [`ParamError`] variants on each violated precondition.
    pub fn new(epsilon: f64, kappa: u32, rho: f64) -> Result<Self, ParamError> {
        Self::build(epsilon, kappa, rho, true)
    }

    /// Like [`new`](Self::new) but skipping the rescaling; see
    /// [`CentralizedParams::with_raw_epsilon`].
    ///
    /// # Errors
    ///
    /// Same as [`new`](Self::new).
    pub fn with_raw_epsilon(epsilon: f64, kappa: u32, rho: f64) -> Result<Self, ParamError> {
        Self::build(epsilon, kappa, rho, false)
    }

    fn build(epsilon: f64, kappa: u32, rho: f64, rescale: bool) -> Result<Self, ParamError> {
        if !(epsilon > 0.0 && epsilon < 1.0 && epsilon.is_finite()) {
            return Err(ParamError::EpsilonOutOfRange { epsilon });
        }
        if kappa < 2 {
            return Err(ParamError::KappaTooSmall { kappa });
        }
        if !(rho >= 1.0 / kappa as f64 && rho <= 0.5 && rho.is_finite()) {
            return Err(ParamError::RhoOutOfRange { rho, kappa });
        }
        let gamma = (kappa as f64).log2().log2().max(2.0);
        let kr = kappa as f64 * rho;
        let by_gamma = if kr >= gamma {
            kr.ln() / gamma.ln()
        } else {
            0.0
        };
        let i0 = (by_gamma.floor() as usize).min(kr.floor() as usize);
        let ell = i0 + (1.0 / rho - 0.5).ceil() as usize;
        let ell = ell.max(i0 + 1);
        let eps_internal = if rescale {
            epsilon * rho / (90.0 * ell as f64)
        } else {
            epsilon
        };
        let radius_multiplier = (4.0 / rho).ceil() as Dist + 2;
        let schedule = PhaseSchedule::build(ell, eps_internal, radius_multiplier);
        Ok(SpannerParams {
            epsilon,
            kappa,
            rho,
            gamma,
            i0,
            schedule,
        })
    }

    /// The public ε.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// The sparsity parameter κ.
    pub fn kappa(&self) -> u32 {
        self.kappa
    }

    /// The running-time exponent ρ.
    pub fn rho(&self) -> f64 {
        self.rho
    }

    /// `γ = max(2, log₂log₂ κ)` of the EN17a sequence.
    pub fn gamma(&self) -> f64 {
        self.gamma
    }

    /// Last exponential-growth phase `i₀ = min(⌊log_γ κρ⌋, ⌊κρ⌋)`.
    pub fn i0(&self) -> usize {
        self.i0
    }

    /// Number of the last phase `ℓ' = i₀ + ⌈1/ρ − 1/2⌉`.
    pub fn ell(&self) -> usize {
        self.schedule.ell
    }

    /// The derived per-phase schedule.
    pub fn schedule(&self) -> &PhaseSchedule {
        &self.schedule
    }

    /// The §4 degree sequence: exponential stage
    /// `n^((2^i−1)/(γκ) + 1/κ)`, transition `n^(ρ/2)`, fixed `n^ρ`.
    pub fn degree_threshold(&self, i: usize, n: usize) -> f64 {
        if i <= self.i0 {
            let e = ((2f64.powi(i as i32) - 1.0) / (self.gamma * self.kappa as f64))
                + 1.0 / self.kappa as f64;
            npow(n, e)
        } else if i == self.i0 + 1 {
            npow(n, self.rho / 2.0)
        } else {
            npow(n, self.rho)
        }
    }

    /// `⌈deg_i⌉`, the integer popularity threshold.
    pub fn degree_cap(&self, i: usize, n: usize) -> usize {
        self.degree_threshold(i, n).ceil() as usize
    }

    /// Distance threshold `δ_i`.
    pub fn delta(&self, i: usize) -> Dist {
        self.schedule.delta[i]
    }

    /// Ruling-set separation `sep_i = 2δ_i + 1`.
    pub fn separation(&self, i: usize) -> Dist {
        sat_add(sat_mul(2, self.delta(i)), 1)
    }

    /// Ruling-set domination radius `rul_i = (2/ρ)·δ_i`.
    pub fn ruling_radius(&self, i: usize) -> Dist {
        ceil_dist(2.0 / self.rho * self.delta(i) as f64)
    }

    /// BFS ruling-forest depth `rul_i + δ_i`.
    pub fn forest_depth(&self, i: usize) -> Dist {
        sat_add(self.ruling_radius(i), self.delta(i))
    }

    /// The numbers of phases `0..=ℓ'` for [`crate::sai::run_phases`] (the
    /// §4 spanner).
    pub fn phase_numbers(&self, n: usize) -> Vec<PhaseNumbers> {
        (0..=self.ell())
            .map(|i| PhaseNumbers {
                delta: self.delta(i),
                degree_threshold: self.degree_threshold(i, n),
                forest_depth: self.forest_depth(i),
            })
            .collect()
    }

    /// The spanner size bound is `O(n^(1+1/κ))` (eq. 39); this returns the
    /// bound without its hidden constant, for trend reporting.
    pub fn size_bound(&self, n: usize) -> f64 {
        npow(n, 1.0 + 1.0 / self.kappa as f64)
    }

    /// The κ that makes the spanner *sparsest* (end of §4): Corollary 4.4
    /// admits κ up to `c·log n / (log(1/ε) + log(1/ρ) + log⁽³⁾n)`, and at
    /// `κ = c'·log n / log⁽³⁾n` the size is `O(n·log log n)`. Returns that
    /// κ with `c' = 1`, clamped to at least 2.
    pub fn sparsest_kappa(n: usize) -> u32 {
        let log_n = (n.max(4) as f64).log2();
        let log3_n = log_n.log2().max(2.0).log2().max(1.0);
        ((log_n / log3_n).round() as u32).max(2)
    }

    /// Certified `(α, β)` stretch pair.
    pub fn certified_stretch(&self) -> (f64, f64) {
        self.schedule.certified_stretch()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn centralized_rejects_bad_params() {
        assert!(CentralizedParams::new(0.0, 4).is_err());
        assert!(CentralizedParams::new(1.0, 4).is_err());
        assert!(CentralizedParams::new(f64::NAN, 4).is_err());
        assert!(CentralizedParams::new(0.5, 1).is_err());
        assert!(CentralizedParams::new(0.5, 2).is_ok());
    }

    #[test]
    fn centralized_ell_matches_formula() {
        // ℓ = ⌈log₂((κ+1)/2)⌉
        for (kappa, expected) in [
            (2u32, 1usize),
            (3, 1),
            (4, 2),
            (7, 2),
            (8, 3),
            (16, 4),
            (100, 6),
        ] {
            let p = CentralizedParams::new(0.5, kappa).unwrap();
            assert_eq!(p.ell(), expected, "kappa = {kappa}");
        }
    }

    #[test]
    fn centralized_degree_telescopes() {
        // deg_i = deg_{i-1}^2 — the identity behind Lemma 2.4.
        let p = CentralizedParams::new(0.5, 16).unwrap();
        let n = 10_000;
        for i in 1..=p.ell() {
            let prev = p.degree_threshold(i - 1, n);
            let cur = p.degree_threshold(i, n);
            assert!((cur - prev * prev).abs() < 1e-6 * cur, "phase {i}");
        }
    }

    #[test]
    fn schedule_recursions_match_definitions() {
        let p = CentralizedParams::new(0.5, 8).unwrap();
        let s = p.schedule();
        let inv = 1.0 / s.eps_internal;
        assert_eq!(s.radius[0], 0);
        for i in 0..=s.ell {
            let expected_delta = (inv.powi(i as i32)).ceil() as Dist + 2 * s.radius[i];
            assert_eq!(s.delta[i], expected_delta, "delta_{i}");
            assert_eq!(
                s.radius[i + 1],
                2 * s.delta[i] + s.radius[i],
                "radius_{}",
                i + 1
            );
        }
    }

    #[test]
    fn delta_zero_is_one_plus_buffer() {
        // δ_0 = ⌈(1/ε)^0⌉ + 2R_0 = 1: phase 0 connects graph neighbors.
        let p = CentralizedParams::new(0.9, 4).unwrap();
        assert_eq!(p.delta(0), 1);
    }

    #[test]
    fn certified_beta_below_closed_form() {
        let p = CentralizedParams::new(0.5, 8).unwrap();
        let (alpha, beta) = p.certified_stretch();
        assert!(alpha <= 1.0 + p.epsilon() + 1e-9, "alpha = {alpha}");
        assert!(
            beta <= p.beta_closed_form(),
            "{beta} vs {}",
            p.beta_closed_form()
        );
        assert!(beta > 0.0);
    }

    #[test]
    fn alpha_certified_below_one_plus_eps_across_params() {
        for &(eps, kappa) in &[(0.9, 2u32), (0.5, 4), (0.25, 16), (0.1, 64), (0.99, 128)] {
            let p = CentralizedParams::new(eps, kappa).unwrap();
            let (alpha, _) = p.certified_stretch();
            assert!(
                alpha <= 1.0 + eps + 1e-9,
                "eps={eps} kappa={kappa}: alpha={alpha}"
            );
        }
    }

    #[test]
    fn size_bound_monotone_in_kappa() {
        let n = 1000;
        let b2 = CentralizedParams::new(0.5, 2).unwrap().size_bound(n);
        let b8 = CentralizedParams::new(0.5, 8).unwrap().size_bound(n);
        let b64 = CentralizedParams::new(0.5, 64).unwrap().size_bound(n);
        assert!(b2 > b8 && b8 > b64);
        assert!(b64 >= n as f64);
    }

    #[test]
    fn distributed_rejects_bad_rho() {
        assert!(DistributedParams::new(0.5, 4, 0.2).is_err()); // rho <= 1/kappa
        assert!(DistributedParams::new(0.5, 4, 0.6).is_err()); // rho > 1/2
        assert!(DistributedParams::new(0.5, 4, 0.5).is_ok());
        assert!(DistributedParams::new(0.5, 4, f64::NAN).is_err());
    }

    #[test]
    fn distributed_stage_structure() {
        let p = DistributedParams::new(0.5, 8, 0.5).unwrap();
        // κρ = 4 → i₀ = 2; ℓ = 2 + ⌈9/4⌉ − 1 = 4.
        assert_eq!(p.i0(), 2);
        assert_eq!(p.ell(), 4);
        let n = 10_000;
        // Exponential stage then plateau at n^ρ.
        assert!(p.degree_threshold(3, n) <= p.degree_threshold(2, n) * p.degree_threshold(2, n));
        assert_eq!(p.degree_threshold(3, n), p.degree_threshold(4, n));
    }

    #[test]
    fn distributed_degree_square_property_everywhere() {
        // deg_{i+1} ≤ deg_i², required by the eq. (18) telescoping.
        for &(kappa, rho) in &[(4u32, 0.5f64), (8, 0.4), (16, 0.3), (64, 0.25)] {
            let p = DistributedParams::new(0.5, kappa, rho).unwrap();
            let n = 100_000;
            for i in 0..p.ell() {
                let cur = p.degree_threshold(i, n);
                let next = p.degree_threshold(i + 1, n);
                assert!(
                    next <= cur * cur * (1.0 + 1e-9),
                    "kappa={kappa} rho={rho} phase {i}: {next} > {cur}^2"
                );
            }
        }
    }

    #[test]
    fn distributed_ruling_parameters() {
        let p = DistributedParams::new(0.5, 4, 0.5).unwrap();
        let d0 = p.delta(0);
        assert_eq!(p.separation(0), 2 * d0 + 1);
        assert_eq!(p.ruling_radius(0), 4 * d0); // 2/ρ = 4
        assert_eq!(p.forest_depth(0), 5 * d0);
    }

    #[test]
    fn distributed_certified_alpha_within_eps() {
        for &(eps, kappa, rho) in &[(0.9, 4u32, 0.5f64), (0.5, 8, 0.4), (0.5, 16, 0.3)] {
            let p = DistributedParams::new(eps, kappa, rho).unwrap();
            let (alpha, beta) = p.certified_stretch();
            assert!(alpha <= 1.0 + eps + 1e-9, "alpha={alpha}");
            assert!(beta > 0.0 && beta.is_finite());
        }
    }

    #[test]
    fn spanner_params_structure() {
        let p = SpannerParams::new(0.5, 8, 0.5).unwrap();
        assert!(p.gamma() >= 2.0);
        let n = 10_000;
        // Degree thresholds never exceed n^ρ after the exponential stage,
        // and the transition phase sits at n^(ρ/2).
        let t = p.degree_threshold(p.i0() + 1, n);
        assert!((t - npow(n, p.rho() / 2.0)).abs() < 1e-9);
        if p.ell() >= p.i0() + 2 {
            assert_eq!(p.degree_threshold(p.i0() + 2, n), npow(n, p.rho()));
        }
    }

    #[test]
    fn spanner_gamma_grows_with_kappa() {
        let small = SpannerParams::new(0.5, 4, 0.5).unwrap();
        let large = SpannerParams::new(0.5, 1 << 16, 0.5).unwrap();
        assert_eq!(small.gamma(), 2.0);
        assert_eq!(large.gamma(), 4.0); // log₂log₂(2^16) = 4
    }

    #[test]
    fn spanner_allows_rho_equal_inverse_kappa() {
        // §4 admits ρ ∈ [1/κ, 1/2] (closed at 1/κ).
        assert!(SpannerParams::new(0.5, 4, 0.25).is_ok());
    }

    #[test]
    fn raw_epsilon_skips_rescaling() {
        let raw = CentralizedParams::with_raw_epsilon(0.5, 8).unwrap();
        let rescaled = CentralizedParams::new(0.5, 8).unwrap();
        assert_eq!(raw.schedule().eps_internal, 0.5);
        assert!(rescaled.schedule().eps_internal < 0.01);
        // Raw-ε thresholds stay small: multi-phase structure is simulable.
        assert!(raw.delta(1) < rescaled.delta(1));
        assert!(raw.delta(raw.ell()) < 1000);

        let raw_d = DistributedParams::with_raw_epsilon(0.5, 8, 0.5).unwrap();
        assert_eq!(raw_d.schedule().eps_internal, 0.5);
        let raw_s = SpannerParams::with_raw_epsilon(0.5, 8, 0.5).unwrap();
        assert_eq!(raw_s.schedule().eps_internal, 0.5);
    }

    #[test]
    fn raw_epsilon_certified_stretch_still_finite_and_sound() {
        let raw = CentralizedParams::with_raw_epsilon(0.5, 16).unwrap();
        let (alpha, beta) = raw.certified_stretch();
        assert!(alpha.is_finite() && alpha >= 1.0);
        assert!(beta.is_finite() && beta > 0.0);
        // No (1+ε) promise in raw mode — α may exceed it.
    }

    #[test]
    fn saturation_does_not_overflow() {
        // Tiny ε and large ℓ force the δ recursion to the cap without panic.
        let p = CentralizedParams::new(0.01, 1 << 20).unwrap();
        let s = p.schedule();
        assert!(s.delta.iter().all(|&d| d <= DELTA_CAP));
        assert!(s.radius.iter().all(|&r| r <= DELTA_CAP));
    }

    #[test]
    fn ultra_sparse_regime_size_bound_near_linear() {
        // κ = log²n ⇒ n^(1+1/κ) = n·2^(1/log n) = n(1 + o(1)).
        let n = 4096;
        let kappa = {
            let l = (n as f64).log2();
            (l * l) as u32
        };
        let p = CentralizedParams::new(0.5, kappa).unwrap();
        let bound = p.size_bound(n);
        assert!(bound < n as f64 * 1.06);
        assert!(bound >= n as f64);
    }
}
