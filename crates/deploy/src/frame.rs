//! Length-prefixed frame protocol spoken on the loopback sockets.
//!
//! Every frame is `u32 length (LE) + u8 kind + body`; the length covers
//! the kind byte and the body and is capped at [`MAX_FRAME`] so a garbage
//! length prefix can never trigger an unbounded read or allocation. Gossip
//! payloads are the exact [`GossipMessage`] bytes from `adam2_core::wire`
//! — the format the simulator charges per exchange — so the deploy runtime
//! and the simulator account identical bytes for identical state.
//!
//! All nodes live on 127.0.0.1, so peers are identified by their u16
//! listener port throughout.

use std::io::{self, Read, Write};

use bytes::{Buf, BufMut, Bytes, BytesMut};

use adam2_core::wire::GossipMessage;
use adam2_core::{DistributionEstimate, WireError};

/// Hard cap on the encoded size of one frame (kind byte + body).
pub const MAX_FRAME: usize = 1 << 20;

const KIND_REQUEST: u8 = 1;
const KIND_RESPONSE: u8 = 2;
const KIND_JOIN: u8 = 3;
const KIND_JOIN_ACK: u8 = 4;
const KIND_START_INSTANCE: u8 = 5;
const KIND_GET_ESTIMATE: u8 = 6;
const KIND_ESTIMATE: u8 = 7;
const KIND_ACK: u8 = 8;

/// Why an incoming frame was rejected. The runtime counts these and drops
/// the connection — a malformed frame must never panic a node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The length prefix exceeds [`MAX_FRAME`].
    Oversized(usize),
    /// The kind byte is not part of the protocol.
    UnknownKind(u8),
    /// The body ended before its declared contents.
    Truncated,
    /// The embedded gossip payload failed to decode.
    Wire(WireError),
    /// The gossip payload decoded structurally but carries values no
    /// honest node can emit (non-finite floats, out-of-range weight or
    /// fractions). Rejecting them at the wire keeps a poisoned peer from
    /// ever reaching the merge path.
    InvalidValues(&'static str),
}

impl From<WireError> for FrameError {
    fn from(e: WireError) -> Self {
        FrameError::Wire(e)
    }
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Oversized(len) => write!(f, "frame length {len} exceeds {MAX_FRAME}"),
            FrameError::UnknownKind(kind) => write!(f, "unknown frame kind {kind}"),
            FrameError::Truncated => write!(f, "truncated frame body"),
            FrameError::Wire(e) => write!(f, "bad gossip payload: {e:?}"),
            FrameError::InvalidValues(what) => write!(f, "implausible gossip payload: {what}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// A node's distribution estimate as sent over the control socket —
/// everything the bench harness needs to rebuild the interpolated CDF and
/// score it against ground truth.
#[derive(Debug, Clone, PartialEq)]
pub struct EstimateWire {
    /// Instance that produced the estimate.
    pub instance: u64,
    /// Round (deploy gossip clock) at which it completed.
    pub completed_round: u64,
    /// System-size estimate (`NaN` encodes "no weight received").
    pub n_hat: Option<f64>,
    /// Converged global minimum.
    pub min: f64,
    /// Converged global maximum.
    pub max: f64,
    /// Interpolation thresholds.
    pub thresholds: Vec<f64>,
    /// Aggregated fractions at the thresholds.
    pub fractions: Vec<f64>,
}

impl From<&DistributionEstimate> for EstimateWire {
    fn from(est: &DistributionEstimate) -> Self {
        Self {
            instance: est.instance.as_u64(),
            completed_round: est.completed_round,
            n_hat: est.n_hat,
            min: est.min,
            max: est.max,
            thresholds: est.thresholds.clone(),
            fractions: est.fractions.clone(),
        }
    }
}

/// One frame of the deploy protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Push half of an exchange: the initiator's gossip state plus the
    /// port its own listener answers on (so the responder can extend its
    /// view).
    Request {
        /// Initiator's listener port.
        sender_port: u16,
        /// Initiator's instance state snapshot.
        msg: GossipMessage,
    },
    /// Pull half of an exchange: the responder's pre-merge state plus a
    /// peer-sampling digest of its view.
    Response {
        /// Sample of the responder's view (its own port included).
        peers: Vec<u16>,
        /// Responder's pre-merge instance state.
        msg: GossipMessage,
    },
    /// Bootstrap: a starting node introduces itself to the seed node.
    Join {
        /// Joiner's listener port.
        port: u16,
    },
    /// Bootstrap reply: ports the joiner should seed its view with.
    JoinAck {
        /// Current member sample.
        peers: Vec<u16>,
    },
    /// Control: instructs the receiving node to begin the carried instance
    /// as initiator (the harness injects the instance this way).
    StartInstance {
        /// Exactly one instance payload describing the new instance.
        msg: GossipMessage,
    },
    /// Control: asks for the node's current distribution estimate.
    GetEstimate,
    /// Control reply: the estimate, if any instance completed yet.
    Estimate(Option<EstimateWire>),
    /// Generic acknowledgement for control frames.
    Ack,
}

fn put_ports(buf: &mut BytesMut, ports: &[u16]) {
    buf.put_u16_le(ports.len() as u16);
    for p in ports {
        buf.put_u16_le(*p);
    }
}

fn get_ports(buf: &mut Bytes) -> Result<Vec<u16>, FrameError> {
    if buf.remaining() < 2 {
        return Err(FrameError::Truncated);
    }
    let n = buf.get_u16_le() as usize;
    if buf.remaining() < n * 2 {
        return Err(FrameError::Truncated);
    }
    Ok((0..n).map(|_| buf.get_u16_le()).collect())
}

fn put_f64_vec(buf: &mut BytesMut, values: &[f64]) {
    buf.put_u16_le(values.len() as u16);
    for v in values {
        buf.put_f64_le(*v);
    }
}

fn get_f64_vec(buf: &mut Bytes) -> Result<Vec<f64>, FrameError> {
    if buf.remaining() < 2 {
        return Err(FrameError::Truncated);
    }
    let n = buf.get_u16_le() as usize;
    if buf.remaining() < n * 8 {
        return Err(FrameError::Truncated);
    }
    Ok((0..n).map(|_| buf.get_f64_le()).collect())
}

/// Screens a decoded gossip payload for values no honest node can emit.
/// Honest weights start at 1 (initiator) or 0 (join) and only ever
/// average, so they stay in `[0, 1]`; indicator fractions likewise, except
/// multi-value instances whose per-node counts may exceed 1. Everything
/// else must simply be finite. `Estimate` control frames are exempt —
/// their `NaN` `n_hat` legally encodes "no weight received".
fn validate_msg(msg: &GossipMessage) -> Result<(), FrameError> {
    for inst in &msg.instances {
        let floats = inst
            .thresholds
            .iter()
            .chain(inst.verify_thresholds.iter())
            .chain(inst.fractions.iter())
            .chain(inst.verify_fractions.iter())
            .chain([&inst.weight, &inst.count, &inst.min, &inst.max]);
        for v in floats {
            if !v.is_finite() {
                return Err(FrameError::InvalidValues("non-finite value"));
            }
        }
        if !(0.0..=1.0).contains(&inst.weight) {
            return Err(FrameError::InvalidValues("weight outside [0, 1]"));
        }
        if inst.count < 0.0 {
            return Err(FrameError::InvalidValues("negative count"));
        }
        let fractions = inst.fractions.iter().chain(inst.verify_fractions.iter());
        for f in fractions {
            if *f < 0.0 {
                return Err(FrameError::InvalidValues("negative fraction"));
            }
            if !inst.multi && *f > 1.0 {
                return Err(FrameError::InvalidValues("fraction above 1"));
            }
        }
    }
    Ok(())
}

impl Frame {
    fn kind(&self) -> u8 {
        match self {
            Frame::Request { .. } => KIND_REQUEST,
            Frame::Response { .. } => KIND_RESPONSE,
            Frame::Join { .. } => KIND_JOIN,
            Frame::JoinAck { .. } => KIND_JOIN_ACK,
            Frame::StartInstance { .. } => KIND_START_INSTANCE,
            Frame::GetEstimate => KIND_GET_ESTIMATE,
            Frame::Estimate(_) => KIND_ESTIMATE,
            Frame::Ack => KIND_ACK,
        }
    }

    /// Encodes the frame, length prefix included.
    pub fn encode(&self) -> Bytes {
        let mut body = BytesMut::new();
        body.put_u8(self.kind());
        match self {
            Frame::Request { sender_port, msg } => {
                body.put_u16_le(*sender_port);
                body.put_slice(msg.encode().as_slice());
            }
            Frame::Response { peers, msg } => {
                put_ports(&mut body, peers);
                body.put_slice(msg.encode().as_slice());
            }
            Frame::Join { port } => body.put_u16_le(*port),
            Frame::JoinAck { peers } => put_ports(&mut body, peers),
            Frame::StartInstance { msg } => body.put_slice(msg.encode().as_slice()),
            Frame::GetEstimate | Frame::Ack => {}
            Frame::Estimate(est) => match est {
                None => body.put_u8(0),
                Some(e) => {
                    body.put_u8(1);
                    body.put_u64_le(e.instance);
                    body.put_u64_le(e.completed_round);
                    body.put_f64_le(e.n_hat.unwrap_or(f64::NAN));
                    body.put_f64_le(e.min);
                    body.put_f64_le(e.max);
                    put_f64_vec(&mut body, &e.thresholds);
                    put_f64_vec(&mut body, &e.fractions);
                }
            },
        }
        assert!(body.len() <= MAX_FRAME, "frame exceeds MAX_FRAME");
        let body = body.freeze();
        let mut framed = BytesMut::with_capacity(4 + body.len());
        framed.put_u32_le(body.len() as u32);
        framed.put_slice(body.as_slice());
        framed.freeze()
    }

    /// Decodes a frame body (kind byte + payload, length prefix already
    /// stripped and validated against [`MAX_FRAME`]).
    pub fn decode(mut body: Bytes) -> Result<Self, FrameError> {
        if body.remaining() < 1 {
            return Err(FrameError::Truncated);
        }
        let kind = body.get_u8();
        match kind {
            KIND_REQUEST => {
                if body.remaining() < 2 {
                    return Err(FrameError::Truncated);
                }
                let sender_port = body.get_u16_le();
                let msg = GossipMessage::decode(body)?;
                validate_msg(&msg)?;
                Ok(Frame::Request { sender_port, msg })
            }
            KIND_RESPONSE => {
                let peers = get_ports(&mut body)?;
                let msg = GossipMessage::decode(body)?;
                validate_msg(&msg)?;
                Ok(Frame::Response { peers, msg })
            }
            KIND_JOIN => {
                if body.remaining() < 2 {
                    return Err(FrameError::Truncated);
                }
                Ok(Frame::Join {
                    port: body.get_u16_le(),
                })
            }
            KIND_JOIN_ACK => Ok(Frame::JoinAck {
                peers: get_ports(&mut body)?,
            }),
            KIND_START_INSTANCE => {
                let msg = GossipMessage::decode(body)?;
                validate_msg(&msg)?;
                Ok(Frame::StartInstance { msg })
            }
            KIND_GET_ESTIMATE => Ok(Frame::GetEstimate),
            KIND_ESTIMATE => {
                if body.remaining() < 1 {
                    return Err(FrameError::Truncated);
                }
                if body.get_u8() == 0 {
                    return Ok(Frame::Estimate(None));
                }
                if body.remaining() < 8 * 5 {
                    return Err(FrameError::Truncated);
                }
                let instance = body.get_u64_le();
                let completed_round = body.get_u64_le();
                let n_hat = body.get_f64_le();
                let min = body.get_f64_le();
                let max = body.get_f64_le();
                let thresholds = get_f64_vec(&mut body)?;
                let fractions = get_f64_vec(&mut body)?;
                Ok(Frame::Estimate(Some(EstimateWire {
                    instance,
                    completed_round,
                    n_hat: if n_hat.is_nan() { None } else { Some(n_hat) },
                    min,
                    max,
                    thresholds,
                    fractions,
                })))
            }
            KIND_ACK => Ok(Frame::Ack),
            other => Err(FrameError::UnknownKind(other)),
        }
    }
}

/// Reads one frame. The outer `io::Result` carries socket-level failures
/// (timeout, reset, EOF mid-frame); the inner result reports protocol
/// violations the caller should count as malformed and answer by dropping
/// the connection.
pub fn read_frame(stream: &mut impl Read) -> io::Result<Result<Frame, FrameError>> {
    let mut len_buf = [0u8; 4];
    stream.read_exact(&mut len_buf)?;
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        // Don't try to drain an adversarial length; the caller closes the
        // connection.
        return Ok(Err(FrameError::Oversized(len)));
    }
    let mut body = vec![0u8; len];
    stream.read_exact(&mut body)?;
    Ok(Frame::decode(Bytes::from(body)))
}

/// Writes one frame (length prefix included). Returns the bytes written.
pub fn write_frame(stream: &mut impl Write, frame: &Frame) -> io::Result<usize> {
    let bytes = frame.encode();
    stream.write_all(bytes.as_slice())?;
    stream.flush()?;
    Ok(bytes.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use adam2_core::wire::InstancePayload;
    use adam2_core::{AttrValue, InstanceId, InstanceLocal, InstanceMeta};

    fn sample_msg() -> GossipMessage {
        let meta = Arc::new(InstanceMeta {
            id: InstanceId::from_u64(99),
            thresholds: vec![1.0, 2.0].into(),
            verify_thresholds: vec![1.5].into(),
            start_round: 0,
            end_round: 30,
            multi: false,
        });
        let local = InstanceLocal::join(meta, &AttrValue::Single(1.25), true);
        let mut msg = GossipMessage {
            seq: 77,
            instances: vec![InstancePayload::from(&local)],
        };
        msg.seq = 77;
        msg
    }

    fn roundtrip(frame: Frame) -> Frame {
        let encoded = frame.encode();
        let len = u32::from_le_bytes(encoded.as_slice()[..4].try_into().unwrap()) as usize;
        assert_eq!(len + 4, encoded.len());
        Frame::decode(encoded.slice(4..)).expect("roundtrip decode")
    }

    #[test]
    fn every_variant_roundtrips() {
        let frames = vec![
            Frame::Request {
                sender_port: 4501,
                msg: sample_msg(),
            },
            Frame::Response {
                peers: vec![4501, 4502, 4503],
                msg: sample_msg(),
            },
            Frame::Join { port: 9999 },
            Frame::JoinAck {
                peers: vec![1, 2, 3, 4],
            },
            Frame::StartInstance { msg: sample_msg() },
            Frame::GetEstimate,
            Frame::Estimate(None),
            Frame::Estimate(Some(EstimateWire {
                instance: 99,
                completed_round: 30,
                n_hat: Some(64.0),
                min: 0.5,
                max: 9.5,
                thresholds: vec![1.0, 2.0, 3.0],
                fractions: vec![0.1, 0.6, 0.9],
            })),
            Frame::Estimate(Some(EstimateWire {
                instance: 1,
                completed_round: 2,
                n_hat: None, // NaN-encoded on the wire
                min: 0.0,
                max: 1.0,
                thresholds: vec![],
                fractions: vec![],
            })),
            Frame::Ack,
        ];
        for frame in frames {
            assert_eq!(roundtrip(frame.clone()), frame);
        }
    }

    #[test]
    fn oversized_length_prefix_is_rejected_without_reading() {
        let mut raw = Vec::new();
        raw.extend_from_slice(&(MAX_FRAME as u32 + 1).to_le_bytes());
        raw.extend_from_slice(&[0u8; 16]);
        let mut cursor = std::io::Cursor::new(raw);
        let err = read_frame(&mut cursor).unwrap().unwrap_err();
        assert!(matches!(err, FrameError::Oversized(_)));
    }

    #[test]
    fn unknown_kind_and_truncations_are_errors_not_panics() {
        assert!(matches!(
            Frame::decode(Bytes::from(vec![200u8])),
            Err(FrameError::UnknownKind(200))
        ));
        assert!(matches!(
            Frame::decode(Bytes::new()),
            Err(FrameError::Truncated)
        ));
        // Truncate a valid frame body at every length.
        let full = Frame::Request {
            sender_port: 1,
            msg: sample_msg(),
        }
        .encode();
        for cut in 4..full.len() - 1 {
            assert!(
                Frame::decode(full.slice(4..cut)).is_err(),
                "cut at {cut} decoded"
            );
        }
    }

    #[test]
    fn garbage_bodies_never_panic() {
        let mut state = 0x1234_5678_9abc_def0u64;
        for len in 0..256 {
            let body: Vec<u8> = (0..len)
                .map(|_| {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    (state >> 56) as u8
                })
                .collect();
            let _ = Frame::decode(Bytes::from(body));
        }
    }

    /// Encodes a request whose payload was mutated by `poison` and decodes
    /// it back.
    fn poisoned_roundtrip(
        poison: impl FnOnce(&mut adam2_core::wire::InstancePayload),
    ) -> Result<Frame, FrameError> {
        let mut msg = sample_msg();
        poison(&mut msg.instances[0]);
        let encoded = Frame::Request {
            sender_port: 7,
            msg,
        }
        .encode();
        Frame::decode(encoded.slice(4..))
    }

    type PayloadCorruption = Box<dyn FnOnce(&mut InstancePayload)>;

    #[test]
    fn poisoned_payload_values_are_rejected_at_decode() {
        let cases: Vec<(&str, PayloadCorruption)> = vec![
            ("nan fraction", Box::new(|p| p.fractions[0] = f64::NAN)),
            ("inf fraction", Box::new(|p| p.fractions[0] = f64::INFINITY)),
            ("nan weight", Box::new(|p| p.weight = f64::NAN)),
            ("inflated weight", Box::new(|p| p.weight = 1e6)),
            ("negative weight", Box::new(|p| p.weight = -0.25)),
            ("negative fraction", Box::new(|p| p.fractions[0] = -0.5)),
            ("fraction above 1", Box::new(|p| p.fractions[0] = 40.0)),
            ("nan verify", Box::new(|p| p.verify_fractions[0] = f64::NAN)),
            ("nan min", Box::new(|p| p.min = f64::NAN)),
            ("inf max", Box::new(|p| p.max = f64::NEG_INFINITY)),
            ("negative count", Box::new(|p| p.count = -3.0)),
        ];
        for (label, poison) in cases {
            let got = poisoned_roundtrip(poison);
            assert!(
                matches!(got, Err(FrameError::InvalidValues(_))),
                "{label}: decoded as {got:?}"
            );
        }
        // The untouched message still passes.
        assert!(poisoned_roundtrip(|_| {}).is_ok());
    }

    #[test]
    fn multi_instance_fractions_may_exceed_one() {
        // Multi-value instances average per-node *counts*, so fractions
        // above 1 are honest there — only non-finite and negative values
        // are implausible.
        let got = poisoned_roundtrip(|p| {
            p.multi = true;
            p.fractions[0] = 7.5;
        });
        assert!(got.is_ok(), "multi count rejected: {got:?}");
        let got = poisoned_roundtrip(|p| {
            p.multi = true;
            p.fractions[0] = f64::INFINITY;
        });
        assert!(matches!(got, Err(FrameError::InvalidValues(_))));
    }

    #[test]
    fn fuzzed_poisoned_floats_never_pass_validation() {
        // Sweep a poisoned f64 through every float field via raw bit
        // patterns: whatever decodes must be Ok only when the value is
        // plausible, and must never panic.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..512 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let v = f64::from_bits(state);
            let field = (state >> 60) % 4;
            let got = poisoned_roundtrip(|p| match field {
                0 => p.fractions[0] = v,
                1 => p.weight = v,
                2 => p.min = v,
                _ => p.verify_fractions[0] = v,
            });
            if let Ok(Frame::Request { msg, .. }) = &got {
                let p = &msg.instances[0];
                let all_finite = p.fractions.iter().all(|f| f.is_finite())
                    && p.verify_fractions.iter().all(|f| f.is_finite())
                    && p.weight.is_finite()
                    && p.min.is_finite();
                assert!(all_finite, "non-finite value passed validation");
                assert!((0.0..=1.0).contains(&p.weight));
            }
        }
    }

    #[test]
    fn frames_stream_back_to_back() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Frame::Join { port: 7 }).unwrap();
        write_frame(&mut buf, &Frame::GetEstimate).unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        assert_eq!(
            read_frame(&mut cursor).unwrap().unwrap(),
            Frame::Join { port: 7 }
        );
        assert_eq!(
            read_frame(&mut cursor).unwrap().unwrap(),
            Frame::GetEstimate
        );
    }
}
