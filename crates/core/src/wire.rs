//! Wire encoding of gossip messages.
//!
//! The simulator exchanges state in-memory, but communication *cost* is a
//! first-class result of the paper (Section VII-I: ≈800 B per message at
//! λ = 50, ≈120 kB per node for a 3-instance estimate). This module defines
//! the concrete wire format a real deployment would use, so every exchange
//! can be charged its exact encoded size; a unit test pins
//! [`GossipMessage::encoded_len`] to the actual encoder output.
//!
//! Layout (little-endian):
//!
//! ```text
//! message  := u64 seq, u16 instance_count, instance*
//! instance := u64 id, u64 start_round, u64 end_round, u8 flags,
//!             u32 epoch, u16 lambda, u16 verify_count,
//!             f64 thresholds[lambda], f64 fractions[lambda],
//!             f64 verify_thresholds[verify], f64 verify_fractions[verify],
//!             f64 weight, f64 count, f64 min, f64 max
//! ```
//!
//! `seq` is the per-exchange sequence number of the two-phase repair path
//! (retransmissions and duplicate deliveries carry the same value, letting
//! the receiver deduplicate idempotently); `epoch` is the instance's
//! self-healing restart epoch.

use std::sync::Arc;

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::error::WireError;
use crate::instance::{InstanceId, InstanceLocal, InstanceMeta};

const FLAG_MULTI: u8 = 0b0000_0001;

/// Wire size of the fixed message header (`u64 seq` + `u16 count`).
pub const HEADER_LEN: usize = 10;

/// The per-instance payload of a gossip message.
#[derive(Debug, Clone, PartialEq)]
pub struct InstancePayload {
    /// Instance identifier.
    pub id: u64,
    /// Round the instance started.
    pub start_round: u64,
    /// Round the instance terminates.
    pub end_round: u64,
    /// Whether nodes contribute multi-value counts.
    pub multi: bool,
    /// Self-healing restart epoch of the sender's state.
    pub epoch: u32,
    /// Interpolation thresholds.
    pub thresholds: Vec<f64>,
    /// Running averaged fractions.
    pub fractions: Vec<f64>,
    /// Verification thresholds.
    pub verify_thresholds: Vec<f64>,
    /// Running averaged verification fractions.
    pub verify_fractions: Vec<f64>,
    /// System-size weight.
    pub weight: f64,
    /// Averaged per-node value count.
    pub count: f64,
    /// Running global minimum.
    pub min: f64,
    /// Running global maximum.
    pub max: f64,
}

impl From<&InstanceLocal> for InstancePayload {
    fn from(local: &InstanceLocal) -> Self {
        Self {
            id: local.meta.id.as_u64(),
            start_round: local.meta.start_round,
            end_round: local.meta.end_round,
            multi: local.meta.multi,
            epoch: local.epoch,
            thresholds: local.meta.thresholds.to_vec(),
            fractions: local.fractions.clone(),
            verify_thresholds: local.meta.verify_thresholds.to_vec(),
            verify_fractions: local.verify_fractions.clone(),
            weight: local.weight,
            count: local.count,
            min: local.min,
            max: local.max,
        }
    }
}

impl InstancePayload {
    /// Size of this payload on the wire.
    pub fn encoded_len(&self) -> usize {
        payload_len(self.thresholds.len(), self.verify_thresholds.len())
    }

    /// The instance metadata the payload announces — all a receiver needs
    /// to join an instance it learned from the wire, without rebuilding
    /// the sender's averaging state as [`to_local`](Self::to_local) does.
    pub fn meta(&self) -> Arc<InstanceMeta> {
        Arc::new(InstanceMeta {
            id: InstanceId::from_u64(self.id),
            thresholds: self.thresholds.as_slice().into(),
            verify_thresholds: self.verify_thresholds.as_slice().into(),
            start_round: self.start_round,
            end_round: self.end_round,
            multi: self.multi,
        })
    }

    /// Reconstructs the sender's state as a receiver-side
    /// [`InstanceLocal`] (used when a real deployment merges against a
    /// snapshot it received over the wire).
    pub fn to_local(&self) -> InstanceLocal {
        InstanceLocal {
            meta: self.meta(),
            fractions: self.fractions.clone(),
            verify_fractions: self.verify_fractions.clone(),
            count: self.count,
            weight: self.weight,
            min: self.min,
            max: self.max,
            epoch: self.epoch,
            initiator: false,
        }
    }

    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u64_le(self.id);
        buf.put_u64_le(self.start_round);
        buf.put_u64_le(self.end_round);
        buf.put_u8(if self.multi { FLAG_MULTI } else { 0 });
        buf.put_u32_le(self.epoch);
        buf.put_u16_le(self.thresholds.len() as u16);
        buf.put_u16_le(self.verify_thresholds.len() as u16);
        for v in &self.thresholds {
            buf.put_f64_le(*v);
        }
        for v in &self.fractions {
            buf.put_f64_le(*v);
        }
        for v in &self.verify_thresholds {
            buf.put_f64_le(*v);
        }
        for v in &self.verify_fractions {
            buf.put_f64_le(*v);
        }
        buf.put_f64_le(self.weight);
        buf.put_f64_le(self.count);
        buf.put_f64_le(self.min);
        buf.put_f64_le(self.max);
    }

    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        if buf.remaining() < 8 * 3 + 1 + 4 + 2 + 2 {
            return Err(WireError::Truncated);
        }
        let id = buf.get_u64_le();
        let start_round = buf.get_u64_le();
        let end_round = buf.get_u64_le();
        let flags = buf.get_u8();
        if flags & !FLAG_MULTI != 0 {
            return Err(WireError::UnknownTag { tag: flags });
        }
        let epoch = buf.get_u32_le();
        let lambda = buf.get_u16_le() as usize;
        let verify = buf.get_u16_le() as usize;
        let floats = lambda * 2 + verify * 2 + 4;
        if buf.remaining() < floats * 8 {
            return Err(WireError::Truncated);
        }
        fn read_vec(buf: &mut Bytes, n: usize) -> Vec<f64> {
            (0..n).map(|_| buf.get_f64_le()).collect()
        }
        let thresholds = read_vec(buf, lambda);
        let fractions = read_vec(buf, lambda);
        let verify_thresholds = read_vec(buf, verify);
        let verify_fractions = read_vec(buf, verify);
        Ok(Self {
            id,
            start_round,
            end_round,
            multi: flags & FLAG_MULTI != 0,
            epoch,
            thresholds,
            fractions,
            verify_thresholds,
            verify_fractions,
            weight: buf.get_f64_le(),
            count: buf.get_f64_le(),
            min: buf.get_f64_le(),
            max: buf.get_f64_le(),
        })
    }
}

/// A complete gossip message: the sender's state for every instance it is
/// currently participating in, tagged with the per-exchange sequence
/// number of the two-phase repair path.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct GossipMessage {
    /// Per-exchange sequence number: a retransmitted request and the
    /// (re)sent response of one exchange all carry the same value, so the
    /// receiver can deduplicate idempotently.
    pub seq: u64,
    /// Per-instance payloads.
    pub instances: Vec<InstancePayload>,
}

impl GossipMessage {
    /// Builds a message from a node's active instances (sequence number 0;
    /// set [`seq`](GossipMessage::seq) for the repair path).
    pub fn from_locals<'a, I>(locals: I) -> Self
    where
        I: IntoIterator<Item = &'a InstanceLocal>,
    {
        Self {
            seq: 0,
            instances: locals.into_iter().map(InstancePayload::from).collect(),
        }
    }

    /// Size of the message on the wire.
    pub fn encoded_len(&self) -> usize {
        HEADER_LEN
            + self
                .instances
                .iter()
                .map(InstancePayload::encoded_len)
                .sum::<usize>()
    }

    /// Encodes the message.
    ///
    /// # Panics
    ///
    /// Panics if the message carries more than 65 535 instances (a node
    /// participates in a handful at most).
    pub fn encode(&self) -> Bytes {
        assert!(
            self.instances.len() <= u16::MAX as usize,
            "too many instances"
        );
        let mut buf = BytesMut::with_capacity(self.encoded_len());
        buf.put_u64_le(self.seq);
        buf.put_u16_le(self.instances.len() as u16);
        for inst in &self.instances {
            inst.encode(&mut buf);
        }
        buf.freeze()
    }

    /// Decodes a message.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on truncation or unknown flags.
    pub fn decode(mut buf: Bytes) -> Result<Self, WireError> {
        if buf.remaining() < HEADER_LEN {
            return Err(WireError::Truncated);
        }
        let seq = buf.get_u64_le();
        let count = buf.get_u16_le() as usize;
        let mut instances = Vec::with_capacity(count.min(64));
        for _ in 0..count {
            instances.push(InstancePayload::decode(&mut buf)?);
        }
        Ok(Self { seq, instances })
    }
}

/// Wire size of one instance payload with `lambda` interpolation and
/// `verify` verification points.
pub fn payload_len(lambda: usize, verify: usize) -> usize {
    8 * 3 + 1 + 4 + 2 + 2 + (lambda * 2 + verify * 2 + 4) * 8
}

/// Wire size of a gossip message carrying the given instances — the value
/// charged to [`NetStats`](adam2_sim::NetStats) per direction of an
/// exchange, without actually serialising on the hot path.
pub fn message_len<'a, I>(locals: I) -> usize
where
    I: IntoIterator<Item = &'a InstanceLocal>,
{
    HEADER_LEN
        + locals
            .into_iter()
            .map(|l| payload_len(l.meta.thresholds.len(), l.meta.verify_thresholds.len()))
            .sum::<usize>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::AttrValue;

    fn sample_local(verify: usize) -> InstanceLocal {
        let meta = Arc::new(InstanceMeta {
            id: InstanceId::derive(3, 7, 1),
            thresholds: vec![1.0, 2.0, 3.0].into(),
            verify_thresholds: (0..verify)
                .map(|i| i as f64 + 0.5)
                .collect::<Vec<_>>()
                .into(),
            start_round: 3,
            end_round: 33,
            multi: false,
        });
        InstanceLocal::join(meta, &AttrValue::Single(2.5), true)
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let locals = [sample_local(0), sample_local(4)];
        let msg = GossipMessage::from_locals(&locals);
        let encoded = msg.encode();
        let decoded = GossipMessage::decode(encoded).unwrap();
        assert_eq!(msg, decoded);
    }

    #[test]
    fn encoded_len_matches_actual_encoding() {
        for verify in [0, 1, 20] {
            let locals = [sample_local(verify)];
            let msg = GossipMessage::from_locals(&locals);
            assert_eq!(msg.encode().len(), msg.encoded_len());
            assert_eq!(msg.encoded_len(), message_len(&locals));
        }
    }

    #[test]
    fn paper_message_size_at_lambda_50() {
        // Section VII-I: "for λ = 50 the size of a gossip message is
        // approximately 800 bytes" — 50 (t, f) pairs = 800 B of payload
        // data; our framing adds a small header.
        let size = payload_len(50, 0) + HEADER_LEN;
        assert!(size >= 800, "payload data itself is 800 B");
        assert!(size < 900, "framing overhead must stay small, got {size}");
    }

    fn sized_payload(lambda: usize, verify: usize) -> InstancePayload {
        InstancePayload {
            id: 1,
            start_round: 0,
            end_round: 30,
            multi: false,
            epoch: 0,
            thresholds: vec![0.5; lambda],
            fractions: vec![0.25; lambda],
            verify_thresholds: vec![0.75; verify],
            verify_fractions: vec![0.5; verify],
            weight: 1.0,
            count: 1.0,
            min: 0.0,
            max: 1.0,
        }
    }

    #[test]
    fn payload_len_matches_encoding_at_size_edges() {
        // The sim charges bytes via payload_len/message_len without
        // serialising; the deploy runtime serialises for real. Both
        // accountings must agree at the λ/verify extremes the u16 length
        // fields allow: 0, 1, and u16::MAX-adjacent.
        let max = u16::MAX as usize;
        for (lambda, verify) in [
            (0, 0),
            (0, 1),
            (1, 0),
            (1, 1),
            (max - 1, 0),
            (max, 0),
            (0, max),
            (1, max - 1),
        ] {
            let msg = GossipMessage {
                seq: 9,
                instances: vec![sized_payload(lambda, verify)],
            };
            let encoded = msg.encode();
            assert_eq!(
                encoded.len(),
                HEADER_LEN + payload_len(lambda, verify),
                "λ={lambda} verify={verify}"
            );
            assert_eq!(encoded.len(), msg.encoded_len());
            let decoded = GossipMessage::decode(encoded).unwrap();
            assert_eq!(decoded.instances[0].thresholds.len(), lambda);
            assert_eq!(decoded.instances[0].verify_thresholds.len(), verify);
        }
    }

    #[test]
    fn message_len_matches_encoding_for_mixed_instances() {
        let locals = [sample_local(0), sample_local(1), sample_local(7)];
        let msg = GossipMessage::from_locals(&locals);
        assert_eq!(msg.encode().len(), message_len(&locals));
        assert_eq!(
            message_len(std::iter::empty::<&InstanceLocal>()),
            HEADER_LEN
        );
    }

    #[test]
    fn decode_rejects_truncation() {
        let locals = [sample_local(2)];
        let encoded = GossipMessage::from_locals(&locals).encode();
        for cut in [0, 1, 5, encoded.len() - 1] {
            let partial = encoded.slice(..cut);
            assert!(
                matches!(GossipMessage::decode(partial), Err(WireError::Truncated)),
                "cut at {cut} not detected"
            );
        }
    }

    #[test]
    fn decode_rejects_unknown_flags() {
        let locals = [sample_local(0)];
        let mut raw = GossipMessage::from_locals(&locals).encode().to_vec();
        raw[HEADER_LEN + 24] = 0xFF; // flags byte of the first instance
        assert!(matches!(
            GossipMessage::decode(Bytes::from(raw)),
            Err(WireError::UnknownTag { .. })
        ));
    }

    #[test]
    fn payload_to_local_roundtrip() {
        let local = sample_local(3);
        let payload = InstancePayload::from(&local);
        let back = payload.to_local();
        assert_eq!(back.meta.id, local.meta.id);
        assert_eq!(back.fractions, local.fractions);
        assert_eq!(back.weight, local.weight);
        assert_eq!(back.meta.thresholds, local.meta.thresholds);
        assert_eq!(back.min, local.min);
    }

    #[test]
    fn empty_message_roundtrip() {
        let msg = GossipMessage::default();
        assert_eq!(msg.encoded_len(), HEADER_LEN);
        let decoded = GossipMessage::decode(msg.encode()).unwrap();
        assert!(decoded.instances.is_empty());
        assert_eq!(decoded.seq, 0);
    }

    #[test]
    fn seq_and_epoch_survive_the_roundtrip() {
        let mut local = sample_local(2);
        local.epoch = 3;
        let mut msg = GossipMessage::from_locals([&local]);
        msg.seq = 0xDEAD_BEEF_0042;
        let decoded = GossipMessage::decode(msg.encode()).unwrap();
        assert_eq!(decoded.seq, 0xDEAD_BEEF_0042);
        assert_eq!(decoded.instances[0].epoch, 3);
        assert_eq!(decoded.instances[0].to_local().epoch, 3);
    }
}
