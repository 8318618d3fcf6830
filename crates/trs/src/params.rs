//! TRS-Tree configuration parameters (§4.5 of the paper).

/// User-facing TRS-Tree parameters.
///
/// The paper's default configuration (§7.1) is `node_fanout = 8`,
/// `max_height = 10`, `outlier_ratio = 0.1`, `error_bound = 2`; that is
/// also [`TrsParams::default`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrsParams {
    /// Number of equal-width children a node splits into.
    pub node_fanout: usize,
    /// Maximum tree depth (1 = a single root leaf, as in the §6 tradeoff
    /// discussion). Splitting stops at this depth regardless of outliers.
    pub max_height: usize,
    /// A node's linear model is rejected (and the node split) when more
    /// than this fraction of its tuples are outliers.
    pub outlier_ratio: f64,
    /// Expected number of host-column values returned for a *point* query
    /// on the target column; the confidence interval ε of each leaf is
    /// derived from it (§4.5).
    pub error_bound: f64,
    /// Appendix D.2 optimization: when `Some(f)`, construction first fits a
    /// model on a random fraction `f` of a node's tuples and splits
    /// immediately if the sample's outlier share already exceeds
    /// `outlier_ratio`, skipping the full-range regression.
    pub sampling_fraction: Option<f64>,
    /// Fraction of covered tuples at which a leaf's outlier buffer queues a
    /// *split* reorganization candidate (§4.4). The paper only says "a
    /// threshold"; twice the build-time `outlier_ratio` is a natural choice
    /// and is what we ship.
    pub split_trigger_ratio: f64,
    /// Fraction of deleted tuples (relative to covered tuples) at which a
    /// leaf queues a *merge* reorganization candidate for its parent
    /// (§4.4).
    pub merge_trigger_ratio: f64,
    /// RNG seed used by the sampling pre-check (deterministic builds).
    pub seed: u64,
}

impl Default for TrsParams {
    fn default() -> Self {
        TrsParams {
            node_fanout: 8,
            max_height: 10,
            outlier_ratio: 0.1,
            error_bound: 2.0,
            sampling_fraction: None,
            split_trigger_ratio: 0.2,
            merge_trigger_ratio: 0.3,
            seed: 0x7E55_1234,
        }
    }
}

impl TrsParams {
    /// Default parameters with a different `error_bound` (the knob the
    /// paper sweeps in Figs. 16–18).
    pub fn with_error_bound(error_bound: f64) -> Self {
        TrsParams { error_bound, ..Default::default() }
    }

    /// Enable the Appendix D.2 sampling pre-check at the paper's default 5%.
    pub fn with_sampling(mut self) -> Self {
        self.sampling_fraction = Some(0.05);
        self
    }

    /// Length of [`to_bytes`](Self::to_bytes)' encoding.
    pub const ENCODED_LEN: usize = 56;

    /// The one on-disk encoding of the parameters, shared by the catalog's
    /// Hermit definitions and the TRS-Tree snapshot header (little-endian):
    /// `node_fanout u32 | max_height u32 | outlier_ratio f64 |
    /// error_bound f64 | sampling_fraction f64 (-1 = none) |
    /// split_trigger_ratio f64 | merge_trigger_ratio f64 | seed u64`.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(Self::ENCODED_LEN);
        out.extend_from_slice(&(self.node_fanout as u32).to_le_bytes());
        out.extend_from_slice(&(self.max_height as u32).to_le_bytes());
        out.extend_from_slice(&self.outlier_ratio.to_le_bytes());
        out.extend_from_slice(&self.error_bound.to_le_bytes());
        out.extend_from_slice(&self.sampling_fraction.unwrap_or(-1.0).to_le_bytes());
        out.extend_from_slice(&self.split_trigger_ratio.to_le_bytes());
        out.extend_from_slice(&self.merge_trigger_ratio.to_le_bytes());
        out.extend_from_slice(&self.seed.to_le_bytes());
        out
    }

    /// Decode [`to_bytes`](Self::to_bytes)' encoding; `None` for a blob of
    /// the wrong length or parameters that fail [`validate`](Self::validate).
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        if bytes.len() != Self::ENCODED_LEN {
            return None;
        }
        let u32_at = |i: usize| u32::from_le_bytes(bytes[i..i + 4].try_into().unwrap());
        let f64_at = |i: usize| f64::from_le_bytes(bytes[i..i + 8].try_into().unwrap());
        let sampling = f64_at(24);
        let params = TrsParams {
            node_fanout: u32_at(0) as usize,
            max_height: u32_at(4) as usize,
            outlier_ratio: f64_at(8),
            error_bound: f64_at(16),
            sampling_fraction: (sampling >= 0.0).then_some(sampling),
            split_trigger_ratio: f64_at(32),
            merge_trigger_ratio: f64_at(40),
            seed: u64::from_le_bytes(bytes[48..56].try_into().unwrap()),
        };
        params.validate().ok().map(|()| params)
    }

    /// Validate parameter sanity; called by construction.
    pub fn validate(&self) -> Result<(), String> {
        if self.node_fanout < 2 {
            return Err(format!("node_fanout must be >= 2, got {}", self.node_fanout));
        }
        if self.max_height < 1 {
            return Err("max_height must be >= 1".into());
        }
        if !(0.0..=1.0).contains(&self.outlier_ratio) {
            return Err(format!("outlier_ratio must be in [0,1], got {}", self.outlier_ratio));
        }
        if self.error_bound < 0.0 {
            return Err(format!("error_bound must be >= 0, got {}", self.error_bound));
        }
        if let Some(f) = self.sampling_fraction {
            if !(0.0..=1.0).contains(&f) {
                return Err(format!("sampling_fraction must be in [0,1], got {f}"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let p = TrsParams::default();
        assert_eq!(p.node_fanout, 8);
        assert_eq!(p.max_height, 10);
        assert_eq!(p.outlier_ratio, 0.1);
        assert_eq!(p.error_bound, 2.0);
        assert!(p.sampling_fraction.is_none());
        p.validate().unwrap();
    }

    #[test]
    fn invalid_params_rejected() {
        assert!(TrsParams { node_fanout: 1, ..Default::default() }.validate().is_err());
        assert!(TrsParams { max_height: 0, ..Default::default() }.validate().is_err());
        assert!(TrsParams { outlier_ratio: 1.5, ..Default::default() }.validate().is_err());
        assert!(TrsParams { error_bound: -1.0, ..Default::default() }.validate().is_err());
        assert!(TrsParams { sampling_fraction: Some(2.0), ..Default::default() }
            .validate()
            .is_err());
    }

    #[test]
    fn bytes_roundtrip_and_keep_their_layout() {
        let p = TrsParams {
            node_fanout: 4,
            sampling_fraction: Some(0.05),
            seed: 42,
            ..Default::default()
        };
        let bytes = p.to_bytes();
        assert_eq!(TrsParams::from_bytes(&bytes), Some(p));
        assert_eq!(bytes[0..4], 4u32.to_le_bytes(), "node_fanout first");
        assert_eq!(bytes[24..32], 0.05f64.to_le_bytes(), "then the ratios, sampling third");
        assert_eq!(bytes[48..56], 42u64.to_le_bytes(), "seed last");
        let none = TrsParams::default();
        assert_eq!(none.to_bytes()[24..32], (-1.0f64).to_le_bytes());
        assert_eq!(TrsParams::from_bytes(&none.to_bytes()), Some(none));
        assert_eq!(TrsParams::from_bytes(&bytes[..55]), None, "short blob");
        let mut bad = bytes.clone();
        bad[0..4].copy_from_slice(&1u32.to_le_bytes());
        assert_eq!(TrsParams::from_bytes(&bad), None, "node_fanout 1 fails validation");
    }

    #[test]
    fn builders() {
        assert_eq!(TrsParams::with_error_bound(100.0).error_bound, 100.0);
        assert_eq!(TrsParams::default().with_sampling().sampling_fraction, Some(0.05));
    }
}
