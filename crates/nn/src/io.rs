//! Model serialisation: the deployment artifact format.
//!
//! A frozen model is saved as a self-describing little-endian binary
//! stream and reloaded bit-exactly. The footer stores the model's
//! [`Model::digest`]; [`load_model`] recomputes the digest after
//! reconstruction and refuses corrupted artifacts — which is the
//! traceability hook: the digest in the artifact is the same value
//! `safex-trace` evidence records carry.
//!
//! Format (version 1):
//!
//! ```text
//! magic  "SXNN"            4 bytes
//! version u32              = 1
//! input shape: rank u32, then rank x u64 dims
//! layer count u32
//! per layer: kind tag u8, then kind-specific fields (see source)
//! footer: digest u64
//! ```
//!
//! All integers little-endian; all weights `f32` bit patterns. No
//! external serialisation dependency — the format is small enough to
//! audit by eye, which is the FUSA point. Loading is panic-free: the
//! non-test code of this module denies `unwrap` and `expect`.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::io::{Read, Write};

use safex_tensor::Shape;

use crate::error::NnError;
use crate::layer::{BatchNormLayer, DenseLayer, Layer};
use crate::model::{Model, ModelBuilder};

const MAGIC: &[u8; 4] = b"SXNN";
const VERSION: u32 = 1;

const TAG_DENSE: u8 = 1;
const TAG_CONV2D: u8 = 2;
const TAG_MAXPOOL: u8 = 3;
const TAG_AVGPOOL: u8 = 4;
const TAG_RELU: u8 = 5;
const TAG_LEAKY_RELU: u8 = 6;
const TAG_SOFTMAX: u8 = 7;
const TAG_FLATTEN: u8 = 8;
const TAG_BATCHNORM: u8 = 9;

/// Serialises a model.
///
/// A `&mut` reference can be passed for `writer` (the `Write` impl on
/// `&mut W` applies).
///
/// # Errors
///
/// Returns [`NnError::Serialization`] on I/O failure or on a layer kind
/// with no serialised representation.
pub fn save_model<W: Write>(model: &Model, mut writer: W) -> Result<(), NnError> {
    let mut w = Emitter(&mut writer);
    w.bytes(MAGIC)?;
    w.u32(VERSION)?;
    let dims = model.input_shape();
    w.u32(dims.rank() as u32)?;
    for &d in dims.dims() {
        w.u64(d as u64)?;
    }
    w.u32(model.len() as u32)?;
    for layer in model.layers() {
        match layer {
            Layer::Dense(d) => {
                w.u8(TAG_DENSE)?;
                w.u64(d.inputs() as u64)?;
                w.u64(d.outputs() as u64)?;
                w.f32s(d.weights())?;
                w.f32s(d.bias())?;
            }
            Layer::Conv2d(c) => {
                w.u8(TAG_CONV2D)?;
                for v in [
                    c.in_channels(),
                    c.out_channels(),
                    c.kernel(),
                    c.stride(),
                    c.padding(),
                ] {
                    w.u64(v as u64)?;
                }
                w.f32s(c.weights())?;
                w.f32s(c.bias())?;
            }
            Layer::MaxPool2d { pool, stride } => {
                w.u8(TAG_MAXPOOL)?;
                w.u64(*pool as u64)?;
                w.u64(*stride as u64)?;
            }
            Layer::AvgPool2d { pool, stride } => {
                w.u8(TAG_AVGPOOL)?;
                w.u64(*pool as u64)?;
                w.u64(*stride as u64)?;
            }
            Layer::Relu => w.u8(TAG_RELU)?,
            Layer::LeakyRelu { alpha } => {
                w.u8(TAG_LEAKY_RELU)?;
                w.f32(*alpha)?;
            }
            Layer::Softmax => w.u8(TAG_SOFTMAX)?,
            Layer::Flatten => w.u8(TAG_FLATTEN)?,
            Layer::BatchNorm(bn) => {
                w.u8(TAG_BATCHNORM)?;
                w.u64(bn.channels() as u64)?;
                w.f32s(bn.gamma())?;
                w.f32s(bn.beta())?;
                w.f32s(bn.mean())?;
                w.f32s(bn.variance())?;
                w.f32(bn.epsilon())?;
            }
            // `Layer` is #[non_exhaustive]-style extensible within the
            // crate; refuse to silently drop unknown future layers.
            #[allow(unreachable_patterns)]
            other => {
                return Err(NnError::Serialization(format!(
                    "layer {} has no serialised representation",
                    other.kind_name()
                )))
            }
        }
    }
    w.u64(model.digest())?;
    Ok(())
}

/// Deserialises a model, verifying magic, version, structure, and the
/// content digest.
///
/// A `&mut` reference can be passed for `reader`.
///
/// # Errors
///
/// Returns [`NnError::Serialization`] on I/O failure, a malformed
/// stream, or a digest mismatch (corruption / tampering).
pub fn load_model<R: Read>(mut reader: R) -> Result<Model, NnError> {
    let mut r = Parser(&mut reader);
    let mut magic = [0u8; 4];
    r.bytes(&mut magic)?;
    if &magic != MAGIC {
        return Err(NnError::Serialization("bad magic (not a SXNN file)".into()));
    }
    let version = r.u32()?;
    if version != VERSION {
        return Err(NnError::Serialization(format!(
            "unsupported version {version}"
        )));
    }
    let rank = r.u32()? as usize;
    if rank == 0 || rank > safex_tensor::shape::MAX_RANK {
        return Err(NnError::Serialization(format!("bad input rank {rank}")));
    }
    let mut dims = Vec::with_capacity(rank);
    for _ in 0..rank {
        dims.push(r.usize()?);
    }
    let input_shape =
        Shape::new(&dims).map_err(|e| NnError::Serialization(format!("bad input shape: {e}")))?;
    // Bound the element count with checked arithmetic: `Shape::len` is a
    // plain product, and dims of 1e8 each are individually plausible but
    // overflow it — and would size every downstream buffer.
    let elems = dims
        .iter()
        .try_fold(1usize, |acc, &d| acc.checked_mul(d))
        .filter(|&n| n <= MAX_INPUT_ELEMS);
    if elems.is_none() {
        return Err(NnError::Serialization(format!(
            "implausible input shape {input_shape}"
        )));
    }

    let layer_count = r.u32()? as usize;
    if layer_count == 0 || layer_count > 10_000 {
        return Err(NnError::Serialization(format!(
            "implausible layer count {layer_count}"
        )));
    }
    // Rebuild through the builder so every shape is re-validated; weights
    // are spliced in afterwards.
    let mut builder = ModelBuilder::new(input_shape);
    let mut pending: Vec<PendingParams> = Vec::new();
    for _ in 0..layer_count {
        match r.u8()? {
            TAG_DENSE => {
                let inputs = r.usize()?;
                let outputs = r.usize()?;
                let weights = r.f32s(checked_mul(inputs, outputs)?)?;
                let bias = r.f32s(outputs)?;
                // The builder will allocate `current.len() x outputs`
                // weights. Bind the stream's declared fan-in to the
                // reconstructed shape *before* that: the weights just
                // read are backed by real stream bytes, so with `inputs`
                // verified, the layer allocation is too. A lying fan-in
                // otherwise buys an allocation sized by two plausible
                // fields multiplied — an abort, not a catchable error.
                if inputs != builder.current_shape().len() {
                    return Err(NnError::Serialization(format!(
                        "dense fan-in {inputs} disagrees with reconstructed shape {}",
                        builder.current_shape()
                    )));
                }
                let mut rng = safex_tensor::DetRng::new(0);
                builder = builder.dense_with_init(outputs, crate::init::Init::Zeros, &mut rng)?;
                pending.push(PendingParams::Dense { weights, bias });
            }
            TAG_CONV2D => {
                let in_c = r.usize()?;
                let out_c = r.usize()?;
                let kernel = plausible_extent(r.usize()?, "conv kernel")?;
                let stride = plausible_extent(r.usize()?, "conv stride")?;
                let padding = plausible_extent(r.usize()?, "conv padding")?;
                let wlen = checked_mul(checked_mul(out_c, in_c)?, checked_mul(kernel, kernel)?)?;
                let weights = r.f32s(wlen)?;
                let bias = r.f32s(out_c)?;
                // Same argument as the dense fan-in: the builder sizes
                // the kernel buffer from *its* input channels, so the
                // stream's claim must match before the allocation. A
                // non-CHW current shape is left for `conv2d` itself to
                // refuse — it does so before allocating anything.
                let current = builder.current_shape();
                if current.rank() == 3 && in_c != current.dims()[0] {
                    return Err(NnError::Serialization(format!(
                        "conv input channels {in_c} disagree with reconstructed shape {current}"
                    )));
                }
                let mut rng = safex_tensor::DetRng::new(0);
                builder = builder.conv2d(out_c, kernel, stride, padding, &mut rng)?;
                pending.push(PendingParams::Conv {
                    weights,
                    bias,
                    in_c,
                });
            }
            TAG_MAXPOOL => {
                let pool = plausible_extent(r.usize()?, "pool window")?;
                let stride = plausible_extent(r.usize()?, "pool stride")?;
                builder = builder.maxpool2d(pool, stride)?;
                pending.push(PendingParams::None);
            }
            TAG_AVGPOOL => {
                let pool = plausible_extent(r.usize()?, "pool window")?;
                let stride = plausible_extent(r.usize()?, "pool stride")?;
                builder = builder.avgpool2d(pool, stride)?;
                pending.push(PendingParams::None);
            }
            TAG_RELU => {
                builder = builder.relu();
                pending.push(PendingParams::None);
            }
            TAG_LEAKY_RELU => {
                let alpha = r.f32()?;
                builder = builder.leaky_relu(alpha);
                pending.push(PendingParams::None);
            }
            TAG_SOFTMAX => {
                builder = builder.softmax();
                pending.push(PendingParams::None);
            }
            TAG_FLATTEN => {
                builder = builder.flatten();
                pending.push(PendingParams::None);
            }
            TAG_BATCHNORM => {
                let n = r.usize()?;
                if n == 0 || n > 1_000_000 {
                    return Err(NnError::Serialization(format!(
                        "implausible batchnorm width {n}"
                    )));
                }
                let gamma = r.f32s(n)?;
                let beta = r.f32s(n)?;
                let mean = r.f32s(n)?;
                let var = r.f32s(n)?;
                let eps = r.f32()?;
                let bn = BatchNormLayer::new(gamma, beta, mean, var, eps)?;
                builder = builder.batchnorm(bn)?;
                pending.push(PendingParams::None);
            }
            tag => {
                return Err(NnError::Serialization(format!("unknown layer tag {tag}")));
            }
        }
    }
    let mut model = builder.build()?;
    // Splice the weights.
    for (layer, params) in model.layers_mut().iter_mut().zip(pending) {
        match (layer, params) {
            (Layer::Dense(d), PendingParams::Dense { weights, bias }) => {
                splice(d, weights, bias)?;
            }
            (
                Layer::Conv2d(c),
                PendingParams::Conv {
                    weights,
                    bias,
                    in_c,
                },
            ) => {
                if c.in_channels() != in_c {
                    return Err(NnError::Serialization(
                        "conv input channels disagree with reconstructed shape".into(),
                    ));
                }
                if c.weights().len() != weights.len() || c.bias().len() != bias.len() {
                    return Err(NnError::Serialization(
                        "conv parameter lengths disagree with reconstructed shape".into(),
                    ));
                }
                c.weights_mut().copy_from_slice(&weights);
                c.bias_mut().copy_from_slice(&bias);
            }
            (_, PendingParams::None) => {}
            _ => {
                return Err(NnError::Serialization(
                    "layer/parameter kind mismatch".into(),
                ))
            }
        }
    }
    // Verify the digest footer.
    let stored = r.u64()?;
    let actual = model.digest();
    if stored != actual {
        return Err(NnError::Serialization(format!(
            "digest mismatch: stored {stored:016x}, recomputed {actual:016x} (corrupt artifact)"
        )));
    }
    Ok(model)
}

fn splice(d: &mut DenseLayer, weights: Vec<f32>, bias: Vec<f32>) -> Result<(), NnError> {
    if d.weights().len() != weights.len() || d.bias().len() != bias.len() {
        return Err(NnError::Serialization(
            "dense parameter lengths disagree with reconstructed shape".into(),
        ));
    }
    d.weights_mut().copy_from_slice(&weights);
    d.bias_mut().copy_from_slice(&bias);
    Ok(())
}

enum PendingParams {
    None,
    Dense {
        weights: Vec<f32>,
        bias: Vec<f32>,
    },
    Conv {
        weights: Vec<f32>,
        bias: Vec<f32>,
        in_c: usize,
    },
}

fn checked_mul(a: usize, b: usize) -> Result<usize, NnError> {
    a.checked_mul(b)
        .filter(|&n| n <= 100_000_000)
        .ok_or_else(|| NnError::Serialization("parameter count overflow".into()))
}

/// Largest input tensor a deployment artifact may declare (elements).
/// Generous for embedded perception inputs, small enough that shape
/// products stay far from overflow.
const MAX_INPUT_ELEMS: usize = 16_777_216;

/// Largest spatial extent (kernel, stride, padding, pool window) a
/// stream may declare. Keeps the shape arithmetic the builder performs
/// on these fields inside checked territory.
fn plausible_extent(v: usize, what: &str) -> Result<usize, NnError> {
    if v > 65_536 {
        return Err(NnError::Serialization(format!("implausible {what} {v}")));
    }
    Ok(v)
}

struct Emitter<'a, W: Write>(&'a mut W);

impl<W: Write> Emitter<'_, W> {
    fn bytes(&mut self, b: &[u8]) -> Result<(), NnError> {
        self.0
            .write_all(b)
            .map_err(|e| NnError::Serialization(format!("write failed: {e}")))
    }
    fn u8(&mut self, v: u8) -> Result<(), NnError> {
        self.bytes(&[v])
    }
    fn u32(&mut self, v: u32) -> Result<(), NnError> {
        self.bytes(&v.to_le_bytes())
    }
    fn u64(&mut self, v: u64) -> Result<(), NnError> {
        self.bytes(&v.to_le_bytes())
    }
    fn f32(&mut self, v: f32) -> Result<(), NnError> {
        self.bytes(&v.to_bits().to_le_bytes())
    }
    fn f32s(&mut self, vs: &[f32]) -> Result<(), NnError> {
        self.u64(vs.len() as u64)?;
        for &v in vs {
            self.f32(v)?;
        }
        Ok(())
    }
}

struct Parser<'a, R: Read>(&'a mut R);

impl<R: Read> Parser<'_, R> {
    fn bytes(&mut self, buf: &mut [u8]) -> Result<(), NnError> {
        self.0
            .read_exact(buf)
            .map_err(|e| NnError::Serialization(format!("read failed: {e}")))
    }
    fn u8(&mut self) -> Result<u8, NnError> {
        let mut b = [0u8; 1];
        self.bytes(&mut b)?;
        Ok(b[0])
    }
    fn u32(&mut self) -> Result<u32, NnError> {
        let mut b = [0u8; 4];
        self.bytes(&mut b)?;
        Ok(u32::from_le_bytes(b))
    }
    fn u64(&mut self) -> Result<u64, NnError> {
        let mut b = [0u8; 8];
        self.bytes(&mut b)?;
        Ok(u64::from_le_bytes(b))
    }
    fn usize(&mut self) -> Result<usize, NnError> {
        let v = self.u64()?;
        usize::try_from(v)
            .ok()
            .filter(|&n| n <= 100_000_000)
            .ok_or_else(|| NnError::Serialization(format!("implausible size field {v}")))
    }
    fn f32(&mut self) -> Result<f32, NnError> {
        let mut b = [0u8; 4];
        self.bytes(&mut b)?;
        Ok(f32::from_bits(u32::from_le_bytes(b)))
    }
    fn f32s(&mut self, expected: usize) -> Result<Vec<f32>, NnError> {
        let len = self.usize()?;
        if len != expected {
            return Err(NnError::Serialization(format!(
                "parameter vector length {len}, expected {expected}"
            )));
        }
        // Cap the upfront reservation: `len` comes from an untrusted
        // header, and a lying count field must not buy a ~400 MB
        // allocation before the stream inevitably hits EOF. Growth past
        // the cap is amortised doubling, paid only by real data.
        let mut out = Vec::with_capacity(len.min(4096));
        for _ in 0..len {
            out.push(self.f32()?);
        }
        Ok(out)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use safex_tensor::DetRng;

    fn model() -> Model {
        let mut rng = DetRng::new(5);
        ModelBuilder::new(Shape::chw(1, 8, 8))
            .conv2d(3, 3, 1, 1, &mut rng)
            .unwrap()
            .batchnorm(BatchNormLayer::identity(3).unwrap())
            .unwrap()
            .relu()
            .maxpool2d(2, 2)
            .unwrap()
            .avgpool2d(2, 2)
            .unwrap()
            .flatten()
            .dense(5, &mut rng)
            .unwrap()
            .leaky_relu(0.1)
            .dense(3, &mut rng)
            .unwrap()
            .softmax()
            .build()
            .unwrap()
    }

    #[test]
    fn round_trip_bit_exact() {
        let original = model();
        let mut buf = Vec::new();
        save_model(&original, &mut buf).unwrap();
        let loaded = load_model(buf.as_slice()).unwrap();
        assert_eq!(loaded, original);
        assert_eq!(loaded.digest(), original.digest());
    }

    #[test]
    fn loaded_model_infers_identically() {
        let original = model();
        let mut buf = Vec::new();
        save_model(&original, &mut buf).unwrap();
        let loaded = load_model(buf.as_slice()).unwrap();
        let mut e1 = crate::Engine::new(original);
        let mut e2 = crate::Engine::new(loaded);
        let input: Vec<f32> = (0..64).map(|i| (i as f32) / 64.0).collect();
        assert_eq!(e1.infer(&input).unwrap(), e2.infer(&input).unwrap());
    }

    #[test]
    fn bad_magic_rejected() {
        let mut buf = Vec::new();
        save_model(&model(), &mut buf).unwrap();
        buf[0] = b'X';
        assert!(matches!(
            load_model(buf.as_slice()),
            Err(NnError::Serialization(_))
        ));
    }

    #[test]
    fn bad_version_rejected() {
        let mut buf = Vec::new();
        save_model(&model(), &mut buf).unwrap();
        buf[4] = 99;
        assert!(load_model(buf.as_slice()).is_err());
    }

    #[test]
    fn weight_corruption_detected_by_digest() {
        let mut buf = Vec::new();
        save_model(&model(), &mut buf).unwrap();
        // Flip a byte in the middle of the weight payload.
        let mid = buf.len() / 2;
        buf[mid] ^= 0xFF;
        let err = load_model(buf.as_slice()).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("digest")
                || msg.contains("length")
                || msg.contains("tag")
                || msg.contains("implausible")
                || msg.contains("batchnorm")
                || msg.contains("shape")
                || msg.contains("incompatible"),
            "unexpected: {msg}"
        );
    }

    #[test]
    fn truncation_detected() {
        let mut buf = Vec::new();
        save_model(&model(), &mut buf).unwrap();
        buf.truncate(buf.len() - 10);
        assert!(load_model(buf.as_slice()).is_err());
    }

    #[test]
    fn empty_stream_rejected() {
        assert!(load_model(&[][..]).is_err());
    }

    #[test]
    fn footer_tamper_detected() {
        let mut buf = Vec::new();
        save_model(&model(), &mut buf).unwrap();
        let last = buf.len() - 1;
        buf[last] ^= 0x01;
        let err = load_model(buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("digest"));
    }
}
