//! Versioned binary model snapshots: persist a trained [`GnnModel`]'s
//! weights and [`ModelConfig`], reload them later (e.g. in the
//! `maxk-serve` inference engine), bitwise-exactly.
//!
//! # Format (version 1, little-endian)
//!
//! ```text
//! magic   8 bytes  b"MAXKSNP1"
//! version u32      1
//! len     u32      body byte count
//! body    len      config + per-layer parameters (see below)
//! crc     u32      FNV-1a over every preceding byte
//! ```
//!
//! The body serializes the [`ModelConfig`] (architecture, activation,
//! layer dimensions, dropout, Edge-Group width) followed by each layer's
//! GIN epsilon, neighbor-path linear and optional SAGE self-path linear.
//! `f32` values round-trip through their raw bit patterns, so a restored
//! model's eval-mode logits are bit-identical to the captured model's.
//!
//! # Example
//!
//! ```
//! use maxk_nn::snapshot::ModelSnapshot;
//! use maxk_nn::{Activation, Arch, GnnModel, ModelConfig};
//! use maxk_graph::generate;
//! use rand::SeedableRng;
//!
//! let graph = generate::chung_lu_power_law(50, 5.0, 2.3, 1).to_csr().unwrap();
//! let mut cfg = ModelConfig::new(Arch::Gcn, Activation::MaxK(4), 8, 3);
//! cfg.hidden_dim = 16;
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let model = GnnModel::new(cfg, &graph, &mut rng);
//!
//! let bytes = ModelSnapshot::capture(&model).to_bytes();
//! let restored = ModelSnapshot::from_bytes(&bytes).unwrap().restore(&graph).unwrap();
//! assert_eq!(restored.num_params(), model.num_params());
//! ```

use crate::conv::{Activation, Arch, Conv};
use crate::model::{GnnModel, ModelConfig};
use crate::plan::PlanLayer;
use crate::version::SnapshotGeneration;
use maxk_graph::Csr;
use maxk_tensor::{Linear, Matrix};
use std::error::Error;
use std::fmt;
use std::path::Path;

/// Leading magic bytes of every snapshot file.
pub const MAGIC: &[u8; 8] = b"MAXKSNP1";
/// Current (and only) format version.
pub const VERSION: u32 = 1;

/// Errors produced while writing, reading or restoring a snapshot.
#[derive(Debug)]
#[non_exhaustive]
pub enum SnapshotError {
    /// Filesystem failure during save/load.
    Io(std::io::Error),
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The file's format version is not supported.
    UnsupportedVersion(u32),
    /// The file is shorter than its header promises.
    Truncated {
        /// Bytes the header declares.
        expected: usize,
        /// Bytes actually present.
        actual: usize,
    },
    /// The checksum does not match the payload.
    Corrupt {
        /// Checksum stored in the file.
        stored: u32,
        /// Checksum recomputed from the payload.
        computed: u32,
    },
    /// The payload parses but is internally inconsistent.
    Malformed(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot I/O error: {e}"),
            SnapshotError::BadMagic => write!(f, "not a MaxK-GNN snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot version {v} (supported: {VERSION})")
            }
            SnapshotError::Truncated { expected, actual } => {
                write!(
                    f,
                    "truncated snapshot: expected {expected} bytes, got {actual}"
                )
            }
            SnapshotError::Corrupt { stored, computed } => write!(
                f,
                "corrupt snapshot: stored checksum {stored:#010x} != computed {computed:#010x}"
            ),
            SnapshotError::Malformed(msg) => write!(f, "malformed snapshot: {msg}"),
        }
    }
}

impl Error for SnapshotError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

/// Captured parameters of one convolution layer.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerSnapshot {
    /// GIN `(1 + ε)` epsilon (0 for other architectures).
    pub eps: f32,
    /// Neighbor-path weight, `in_dim × out_dim`.
    pub neigh_weight: Matrix,
    /// Neighbor-path bias, `out_dim`.
    pub neigh_bias: Vec<f32>,
    /// SAGE self-path `(weight, bias)`, when the architecture has one.
    pub self_path: Option<(Matrix, Vec<f32>)>,
}

/// A complete serializable model: configuration plus per-layer weights.
#[derive(Debug, Clone)]
pub struct ModelSnapshot {
    /// The captured model configuration.
    pub config: ModelConfig,
    /// Per-layer parameters, input layer first.
    pub layers: Vec<LayerSnapshot>,
    /// Process-local identity of this weight set, minted when the
    /// snapshot is captured or loaded. Not persisted in the byte format
    /// and excluded from equality: it names a runtime incarnation, not
    /// the weights' values. Clones share the generation; a reload of the
    /// same file mints a new one.
    pub generation: SnapshotGeneration,
}

// Equality deliberately ignores `generation`: two snapshots with the
// same config and weights compare equal even across save/load round
// trips, while the runtime identity stays distinct for cache keying.
impl PartialEq for ModelSnapshot {
    fn eq(&self, other: &Self) -> bool {
        self.config == other.config && self.layers == other.layers
    }
}

impl ModelSnapshot {
    /// Captures the weights and configuration of `model`.
    #[must_use]
    pub fn capture(model: &GnnModel) -> Self {
        let layers = model
            .layers()
            .iter()
            .map(|conv| LayerSnapshot {
                eps: conv.eps(),
                neigh_weight: conv.lin_neigh().weight().clone(),
                neigh_bias: conv.lin_neigh().bias().to_vec(),
                self_path: conv
                    .lin_self()
                    .map(|l| (l.weight().clone(), l.bias().to_vec())),
            })
            .collect();
        ModelSnapshot {
            config: model.config().clone(),
            layers,
            generation: SnapshotGeneration::mint(),
        }
    }

    /// The borrowed weight view of layer `l` that
    /// [`crate::plan::eval_layer`] runs over — serving reads the
    /// snapshot's own matrices, it keeps no second representation.
    ///
    /// # Panics
    ///
    /// Panics when `l` is out of range.
    pub fn plan_layer(&self, l: usize) -> PlanLayer<'_> {
        let layer = &self.layers[l];
        PlanLayer {
            activation: self.config.layer_shape(l).2,
            eps: layer.eps,
            neigh_weight: &layer.neigh_weight,
            neigh_bias: &layer.neigh_bias,
            self_path: layer.self_path.as_ref().map(|(w, b)| (w, b.as_slice())),
        }
    }

    /// Rebuilds a trainable [`GnnModel`] over `graph` from this snapshot.
    ///
    /// The graph context (normalization, Edge-Group partition) is rebuilt
    /// exactly as [`GnnModel::new`] would, so eval-mode forward passes of
    /// the restored model are bit-identical to the captured one on the
    /// same graph.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Malformed`] when the layer chain is inconsistent
    /// with the configuration.
    pub fn restore(&self, graph: &Csr) -> Result<GnnModel, SnapshotError> {
        self.check_consistency()?;
        let cfg = self.config.clone();
        let convs = self
            .layers
            .iter()
            .enumerate()
            .map(|(i, layer)| {
                let lin_neigh =
                    Linear::from_parts(layer.neigh_weight.clone(), layer.neigh_bias.clone());
                let lin_self = layer
                    .self_path
                    .as_ref()
                    .map(|(w, b)| Linear::from_parts(w.clone(), b.clone()));
                let activation = cfg.layer_shape(i).2;
                Conv::from_parts(
                    cfg.arch,
                    activation,
                    cfg.dropout,
                    layer.eps,
                    lin_neigh,
                    lin_self,
                )
            })
            .collect();
        Ok(GnnModel::from_parts(cfg, graph, convs))
    }

    /// Validates that the layer chain matches the configuration, turning
    /// would-be panics in the restore path into [`SnapshotError`]s.
    ///
    /// Public because downstream consumers (the serving engine) accept
    /// hand-built `ModelSnapshot` values that never went through
    /// [`ModelSnapshot::from_bytes`] and need the same gate.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Malformed`] naming the first inconsistency.
    pub fn check_consistency(&self) -> Result<(), SnapshotError> {
        let cfg = &self.config;
        if cfg.num_layers < 2 {
            return Err(SnapshotError::Malformed(format!(
                "num_layers {} below minimum 2",
                cfg.num_layers
            )));
        }
        if let Activation::MaxK(k) = cfg.activation {
            if k == 0 || k > cfg.hidden_dim {
                return Err(SnapshotError::Malformed(format!(
                    "MaxK k {k} invalid for hidden dim {}",
                    cfg.hidden_dim
                )));
            }
        }
        if self.layers.len() != cfg.num_layers {
            return Err(SnapshotError::Malformed(format!(
                "{} layers but config says {}",
                self.layers.len(),
                cfg.num_layers
            )));
        }
        for (i, layer) in self.layers.iter().enumerate() {
            let (in_dim, out_dim, _) = cfg.layer_shape(i);
            if layer.neigh_weight.shape() != (in_dim, out_dim) {
                return Err(SnapshotError::Malformed(format!(
                    "layer {i} weight shape {:?}, expected ({in_dim}, {out_dim})",
                    layer.neigh_weight.shape()
                )));
            }
            if layer.neigh_bias.len() != out_dim {
                return Err(SnapshotError::Malformed(format!(
                    "layer {i} bias length {}, expected {out_dim}",
                    layer.neigh_bias.len()
                )));
            }
            if (cfg.arch == Arch::Sage) != layer.self_path.is_some() {
                return Err(SnapshotError::Malformed(format!(
                    "layer {i} self path presence disagrees with arch {:?}",
                    cfg.arch
                )));
            }
            if let Some((w, b)) = &layer.self_path {
                if w.shape() != (in_dim, out_dim) || b.len() != out_dim {
                    return Err(SnapshotError::Malformed(format!(
                        "layer {i} self path shape {:?}/{}",
                        w.shape(),
                        b.len()
                    )));
                }
            }
            // A NaN or ±∞ weight would serve non-finite logits, and a
            // `0 · ∞` term is skipped by the zero-skipping matmuls.
            let self_path = layer.self_path.as_ref();
            let tensors = [
                ("eps", std::slice::from_ref(&layer.eps)),
                ("neigh_weight", layer.neigh_weight.data()),
                ("neigh_bias", &layer.neigh_bias[..]),
                ("self_weight", self_path.map_or(&[][..], |(w, _)| w.data())),
                ("self_bias", self_path.map_or(&[][..], |(_, b)| &b[..])),
            ];
            if let Some((name, _)) = tensors
                .iter()
                .find(|(_, v)| !v.iter().all(|x| x.is_finite()))
            {
                return Err(SnapshotError::Malformed(format!(
                    "layer {i} {name} holds a non-finite value"
                )));
            }
        }
        Ok(())
    }

    /// Serializes to the versioned binary format.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut body = Vec::new();
        let cfg = &self.config;
        body.push(arch_tag(cfg.arch));
        let (act_tag, act_k) = activation_tag(cfg.activation);
        body.push(act_tag);
        put_u32(&mut body, act_k);
        put_u32(&mut body, cfg.num_layers as u32);
        put_u32(&mut body, cfg.in_dim as u32);
        put_u32(&mut body, cfg.hidden_dim as u32);
        put_u32(&mut body, cfg.out_dim as u32);
        put_f32(&mut body, cfg.dropout);
        put_u32(&mut body, cfg.eg_width as u32);
        put_u32(&mut body, self.layers.len() as u32);
        for layer in &self.layers {
            put_f32(&mut body, layer.eps);
            put_matrix(&mut body, &layer.neigh_weight);
            put_f32_slice(&mut body, &layer.neigh_bias);
            match &layer.self_path {
                Some((w, b)) => {
                    body.push(1);
                    put_matrix(&mut body, w);
                    put_f32_slice(&mut body, b);
                }
                None => body.push(0),
            }
        }

        let mut out = Vec::with_capacity(MAGIC.len() + 12 + body.len());
        out.extend_from_slice(MAGIC);
        put_u32(&mut out, VERSION);
        put_u32(&mut out, body.len() as u32);
        out.extend_from_slice(&body);
        let crc = fnv1a(&out);
        put_u32(&mut out, crc);
        out
    }

    /// Parses the versioned binary format.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::BadMagic`], [`SnapshotError::UnsupportedVersion`],
    /// [`SnapshotError::Truncated`] (file shorter than the header
    /// declares), [`SnapshotError::Corrupt`] (checksum mismatch) or
    /// [`SnapshotError::Malformed`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let header = MAGIC.len() + 8; // magic + version + body_len
        if bytes.len() < header {
            return Err(SnapshotError::Truncated {
                expected: header + 4,
                actual: bytes.len(),
            });
        }
        if &bytes[..MAGIC.len()] != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let mut r = Reader {
            buf: bytes,
            pos: MAGIC.len(),
        };
        let version = r.u32()?;
        if version != VERSION {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        let body_len = r.u32()? as usize;
        let expected = header + body_len + 4;
        if bytes.len() < expected {
            return Err(SnapshotError::Truncated {
                expected,
                actual: bytes.len(),
            });
        }
        if bytes.len() > expected {
            return Err(SnapshotError::Malformed(format!(
                "{} trailing bytes",
                bytes.len() - expected
            )));
        }
        let computed = fnv1a(&bytes[..expected - 4]);
        let stored = u32::from_le_bytes(bytes[expected - 4..].try_into().expect("4 bytes"));
        if stored != computed {
            return Err(SnapshotError::Corrupt { stored, computed });
        }

        let arch = arch_from_tag(r.u8()?)?;
        let activation = activation_from_tag(r.u8()?, r.u32()?)?;
        let num_layers = r.u32()? as usize;
        let in_dim = r.u32()? as usize;
        let hidden_dim = r.u32()? as usize;
        let out_dim = r.u32()? as usize;
        let dropout = r.f32()?;
        let eg_width = r.u32()? as usize;
        let config = ModelConfig {
            arch,
            activation,
            num_layers,
            in_dim,
            hidden_dim,
            out_dim,
            dropout,
            eg_width,
        };
        let layer_count = r.u32()? as usize;
        let mut layers = Vec::new();
        for _ in 0..layer_count {
            let eps = r.f32()?;
            let neigh_weight = r.matrix()?;
            let neigh_bias = r.f32_vec()?;
            let self_path = match r.u8()? {
                0 => None,
                1 => Some((r.matrix()?, r.f32_vec()?)),
                t => {
                    return Err(SnapshotError::Malformed(format!("bad self-path tag {t}")));
                }
            };
            layers.push(LayerSnapshot {
                eps,
                neigh_weight,
                neigh_bias,
                self_path,
            });
        }
        if r.pos != expected - 4 {
            return Err(SnapshotError::Malformed(format!(
                "{} unparsed body bytes",
                expected - 4 - r.pos
            )));
        }
        let snap = ModelSnapshot {
            config,
            layers,
            generation: SnapshotGeneration::mint(),
        };
        snap.check_consistency()?;
        Ok(snap)
    }

    /// Writes the snapshot to `path`.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Io`] on filesystem failure.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), SnapshotError> {
        std::fs::write(path, self.to_bytes())?;
        Ok(())
    }

    /// Reads a snapshot from `path`.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Io`] on filesystem failure, plus every
    /// [`ModelSnapshot::from_bytes`] condition.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, SnapshotError> {
        Self::from_bytes(&std::fs::read(path)?)
    }

    /// Total parameter count stored in the snapshot.
    pub fn num_params(&self) -> usize {
        self.layers
            .iter()
            .map(|l| {
                let neigh = l.neigh_weight.data().len() + l.neigh_bias.len();
                let own = l
                    .self_path
                    .as_ref()
                    .map_or(0, |(w, b)| w.data().len() + b.len());
                neigh + own
            })
            .sum()
    }
}

fn arch_tag(arch: Arch) -> u8 {
    match arch {
        Arch::Gcn => 0,
        Arch::Sage => 1,
        Arch::Gin => 2,
    }
}

fn arch_from_tag(tag: u8) -> Result<Arch, SnapshotError> {
    match tag {
        0 => Ok(Arch::Gcn),
        1 => Ok(Arch::Sage),
        2 => Ok(Arch::Gin),
        t => Err(SnapshotError::Malformed(format!("bad arch tag {t}"))),
    }
}

fn activation_tag(act: Activation) -> (u8, u32) {
    match act {
        Activation::Relu => (0, 0),
        Activation::MaxK(k) => (1, k as u32),
    }
}

fn activation_from_tag(tag: u8, k: u32) -> Result<Activation, SnapshotError> {
    match tag {
        0 => Ok(Activation::Relu),
        1 => Ok(Activation::MaxK(k as usize)),
        t => Err(SnapshotError::Malformed(format!("bad activation tag {t}"))),
    }
}

/// FNV-1a 32-bit hash — the snapshot checksum.
fn fnv1a(bytes: &[u8]) -> u32 {
    let mut h = 0x811c_9dc5u32;
    for &b in bytes {
        h ^= u32::from(b);
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f32(out: &mut Vec<u8>, v: f32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f32_slice(out: &mut Vec<u8>, vs: &[f32]) {
    put_u32(out, vs.len() as u32);
    for &v in vs {
        put_f32(out, v);
    }
}

fn put_matrix(out: &mut Vec<u8>, m: &Matrix) {
    put_u32(out, m.rows() as u32);
    put_u32(out, m.cols() as u32);
    for &v in m.data() {
        put_f32(out, v);
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], SnapshotError> {
        // Length and checksum were validated up front, so running out of
        // bytes here means the declared structure overruns the body.
        if self.pos + n > self.buf.len() {
            return Err(SnapshotError::Malformed(
                "declared sizes overrun the payload".to_owned(),
            ));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn f32(&mut self) -> Result<f32, SnapshotError> {
        Ok(f32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn f32_vec(&mut self) -> Result<Vec<f32>, SnapshotError> {
        let n = self.u32()? as usize;
        let raw = self.take(
            n.checked_mul(4)
                .ok_or_else(|| SnapshotError::Malformed("vector length overflow".to_owned()))?,
        )?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")))
            .collect())
    }

    fn matrix(&mut self) -> Result<Matrix, SnapshotError> {
        let rows = self.u32()? as usize;
        let cols = self.u32()? as usize;
        let len = rows
            .checked_mul(cols)
            .ok_or_else(|| SnapshotError::Malformed("matrix shape overflow".to_owned()))?;
        let raw =
            self.take(len.checked_mul(4).ok_or_else(|| {
                SnapshotError::Malformed("matrix byte length overflow".to_owned())
            })?)?;
        let data = raw
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")))
            .collect();
        Matrix::from_vec(rows, cols, data)
            .map_err(|e| SnapshotError::Malformed(format!("matrix reconstruction: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maxk_graph::generate;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn graph() -> Csr {
        generate::chung_lu_power_law(40, 5.0, 2.3, 1)
            .to_csr()
            .unwrap()
    }

    fn model(arch: Arch, act: Activation) -> GnnModel {
        let mut cfg = ModelConfig::new(arch, act, 10, 4);
        cfg.hidden_dim = 12;
        cfg.dropout = 0.0;
        let mut rng = StdRng::seed_from_u64(3);
        GnnModel::new(cfg, &graph(), &mut rng)
    }

    #[test]
    fn byte_roundtrip_all_archs() {
        for arch in [Arch::Gcn, Arch::Sage, Arch::Gin] {
            for act in [Activation::Relu, Activation::MaxK(4)] {
                let snap = ModelSnapshot::capture(&model(arch, act));
                let back = ModelSnapshot::from_bytes(&snap.to_bytes()).unwrap();
                assert_eq!(back, snap, "{arch:?} {act:?}");
            }
        }
    }

    #[test]
    fn restore_preserves_eval_logits_bitwise() {
        let g = graph();
        let mut original = model(Arch::Sage, Activation::MaxK(4));
        let snap = ModelSnapshot::capture(&original);
        let mut restored = ModelSnapshot::from_bytes(&snap.to_bytes())
            .unwrap()
            .restore(&g)
            .unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let x = Matrix::xavier(40, 10, &mut rng);
        let a = original.forward(&x, false, &mut rng);
        let b = restored.forward(&x, false, &mut rng);
        assert_eq!(a, b, "restored logits must be bit-identical");
    }

    #[test]
    fn bad_magic_detected() {
        let mut bytes = ModelSnapshot::capture(&model(Arch::Gcn, Activation::Relu)).to_bytes();
        bytes[0] = b'X';
        assert!(matches!(
            ModelSnapshot::from_bytes(&bytes),
            Err(SnapshotError::BadMagic)
        ));
    }

    #[test]
    fn unsupported_version_detected() {
        let mut bytes = ModelSnapshot::capture(&model(Arch::Gcn, Activation::Relu)).to_bytes();
        bytes[8] = 99; // version field
        assert!(matches!(
            ModelSnapshot::from_bytes(&bytes),
            Err(SnapshotError::UnsupportedVersion(99))
        ));
    }

    #[test]
    fn truncation_detected() {
        let bytes = ModelSnapshot::capture(&model(Arch::Gin, Activation::MaxK(3))).to_bytes();
        for cut in [bytes.len() - 1, bytes.len() / 2, 10, 0] {
            assert!(
                matches!(
                    ModelSnapshot::from_bytes(&bytes[..cut]),
                    Err(SnapshotError::Truncated { .. })
                ),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn corruption_detected() {
        let bytes = ModelSnapshot::capture(&model(Arch::Sage, Activation::MaxK(3))).to_bytes();
        // Flip one payload byte somewhere in the weight data.
        let mut bad = bytes.clone();
        let mid = bytes.len() / 2;
        bad[mid] ^= 0xff;
        assert!(matches!(
            ModelSnapshot::from_bytes(&bad),
            Err(SnapshotError::Corrupt { .. })
        ));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = ModelSnapshot::capture(&model(Arch::Gcn, Activation::Relu)).to_bytes();
        bytes.push(0);
        assert!(matches!(
            ModelSnapshot::from_bytes(&bytes),
            Err(SnapshotError::Malformed(_))
        ));
    }

    #[test]
    fn inconsistent_snapshot_rejected_on_restore() {
        let snap = ModelSnapshot::capture(&model(Arch::Gcn, Activation::Relu));
        let mut broken = snap.clone();
        broken.layers.pop();
        assert!(matches!(
            broken.restore(&graph()),
            Err(SnapshotError::Malformed(_))
        ));
        let mut bad_k = snap;
        bad_k.config.activation = Activation::MaxK(0);
        assert!(matches!(
            bad_k.restore(&graph()),
            Err(SnapshotError::Malformed(_))
        ));
    }

    #[test]
    fn non_finite_weights_are_rejected_on_load() {
        let snap = ModelSnapshot::capture(&model(Arch::Sage, Activation::MaxK(4)));
        for (bad, layer, tensor) in [
            (f32::NAN, 1, "neigh_weight"),
            (f32::INFINITY, 2, "self_bias"),
        ] {
            let mut broken = snap.clone();
            match tensor {
                "neigh_weight" => broken.layers[layer].neigh_weight.data_mut()[5] = bad,
                _ => broken.layers[layer].self_path.as_mut().unwrap().1[0] = bad,
            }
            match ModelSnapshot::from_bytes(&broken.to_bytes()) {
                Err(SnapshotError::Malformed(msg)) => {
                    assert_eq!(
                        msg,
                        format!("layer {layer} {tensor} holds a non-finite value")
                    );
                }
                other => panic!("{tensor} = {bad} loaded as {other:?}"),
            }
        }
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join(format!("maxk-snap-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.snap");
        let snap = ModelSnapshot::capture(&model(Arch::Sage, Activation::MaxK(4)));
        snap.save(&path).unwrap();
        let loaded = ModelSnapshot::load(&path).unwrap();
        assert_eq!(loaded, snap);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_file_is_io_error() {
        assert!(matches!(
            ModelSnapshot::load("/nonexistent/maxk.snap"),
            Err(SnapshotError::Io(_))
        ));
    }

    #[test]
    fn num_params_matches_model() {
        let m = model(Arch::Sage, Activation::Relu);
        assert_eq!(ModelSnapshot::capture(&m).num_params(), m.num_params());
    }
}
