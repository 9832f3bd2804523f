//! Byte-stable wire codec for [`BrokerMsg`] (DESIGN.md §13.4).
//!
//! Implements `greenps_net::Wire` for the broker message vocabulary so
//! the TCP transport can carry real frames. Nested vocabulary types
//! (values, filters, profiles) are foreign to this crate, so they are
//! encoded through free `put_*`/`read_*` helper pairs rather than
//! trait impls — which also keeps the encode-side call graph fully
//! resolvable for the hot-path-alloc lint: the publish frame-encode
//! path allocates nothing beyond the caller's reusable scratch buffer.
//!
//! The encoding is byte-stable: every container iterates in a
//! deterministic order (`Vec` insertion order, `BTreeMap` key order),
//! so `encode(decode(encode(x))) == encode(x)` byte for byte. The
//! round-trip property is pinned by proptests in
//! `tests/wire_roundtrip.rs`.

use crate::messages::{BrokerMsg, GatheredBroker, PubEnvelope};
use greenps_core::model::{BrokerSpec, LinearFn, SubscriptionEntry};
use greenps_net::wire::{
    put_bool, put_f64, put_i64, put_seq_len, put_str, put_u32, put_u64, put_u8, Wire, WireError,
    WireReader,
};
use greenps_profile::{PublisherProfile, ShiftingBitVector, SubscriptionProfile};
use greenps_pubsub::ids::{AdvId, BrokerId, ClientId, MsgId, SubId};
use greenps_pubsub::message::{Advertisement, Publication, Subscription};
use greenps_pubsub::predicate::{Op, Predicate};
use greenps_pubsub::value::Value;
use greenps_simnet::SimTime;

// --- values and predicates -------------------------------------------

fn put_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Int(i) => {
            put_u8(out, 0);
            put_i64(out, *i);
        }
        Value::Float(f) => {
            put_u8(out, 1);
            put_f64(out, *f);
        }
        Value::Str(s) => {
            put_u8(out, 2);
            put_str(out, s);
        }
        Value::Bool(b) => {
            put_u8(out, 3);
            put_bool(out, *b);
        }
    }
}

fn read_value(r: &mut WireReader<'_>) -> Result<Value, WireError> {
    match r.u8()? {
        0 => Ok(Value::Int(r.i64()?)),
        1 => Ok(Value::Float(r.f64()?)),
        2 => Ok(Value::str(r.str()?)),
        3 => Ok(Value::Bool(r.bool()?)),
        t => Err(WireError::BadTag(t)),
    }
}

fn put_op(out: &mut Vec<u8>, op: Op) {
    let tag = match op {
        Op::Eq => 0,
        Op::Neq => 1,
        Op::Lt => 2,
        Op::Le => 3,
        Op::Gt => 4,
        Op::Ge => 5,
        Op::Prefix => 6,
        Op::Suffix => 7,
        Op::Contains => 8,
        Op::Present => 9,
    };
    put_u8(out, tag);
}

fn read_op(r: &mut WireReader<'_>) -> Result<Op, WireError> {
    match r.u8()? {
        0 => Ok(Op::Eq),
        1 => Ok(Op::Neq),
        2 => Ok(Op::Lt),
        3 => Ok(Op::Le),
        4 => Ok(Op::Gt),
        5 => Ok(Op::Ge),
        6 => Ok(Op::Prefix),
        7 => Ok(Op::Suffix),
        8 => Ok(Op::Contains),
        9 => Ok(Op::Present),
        t => Err(WireError::BadTag(t)),
    }
}

fn put_predicate(out: &mut Vec<u8>, p: &Predicate) {
    put_str(out, &p.attr);
    put_op(out, p.op);
    put_value(out, &p.value);
}

/// Smallest predicate encoding: an empty attribute (its `u32`
/// length), the op tag, and a value tag plus the smallest value (a
/// `bool` byte).
const MIN_PREDICATE_LEN: usize = 4 + 1 + 1 + 1;

fn read_predicate(r: &mut WireReader<'_>) -> Result<Predicate, WireError> {
    let attr = r.str()?;
    let op = read_op(r)?;
    let value = read_value(r)?;
    Ok(Predicate::new(attr, op, value))
}

fn put_filter(out: &mut Vec<u8>, f: &greenps_pubsub::filter::Filter) {
    let preds = f.predicates();
    put_seq_len(out, preds.len());
    for p in preds {
        put_predicate(out, p);
    }
}

fn read_filter(r: &mut WireReader<'_>) -> Result<greenps_pubsub::filter::Filter, WireError> {
    let n = r.seq_len_of(MIN_PREDICATE_LEN)?;
    let mut preds = Vec::with_capacity(n);
    for _ in 0..n {
        preds.push(read_predicate(r)?);
    }
    Ok(greenps_pubsub::filter::Filter::from_predicates(preds))
}

// --- publications ----------------------------------------------------

fn put_publication(out: &mut Vec<u8>, p: &Publication) {
    put_u64(out, p.adv_id.raw());
    put_u64(out, p.msg_id.raw());
    put_seq_len(out, p.len());
    for (attr, value) in p.iter() {
        put_str(out, attr);
        put_value(out, value);
    }
}

fn read_publication(r: &mut WireReader<'_>) -> Result<Publication, WireError> {
    let adv = AdvId::new(r.u64()?);
    let msg = MsgId::new(r.u64()?);
    let n = r.seq_len()?;
    let mut b = Publication::builder(adv, msg);
    for _ in 0..n {
        let attr = r.str()?;
        let value = read_value(r)?;
        b = b.attr(attr, value);
    }
    Ok(b.build())
}

fn put_envelope(out: &mut Vec<u8>, e: &PubEnvelope) {
    put_publication(out, &e.publication);
    put_u32(out, e.hops);
    put_u64(out, e.published_at.as_micros());
}

fn read_envelope(r: &mut WireReader<'_>) -> Result<PubEnvelope, WireError> {
    let publication = read_publication(r)?;
    let hops = r.u32()?;
    let published_at = SimTime::from_micros(r.u64()?);
    Ok(PubEnvelope {
        publication,
        hops,
        published_at,
    })
}

// --- profiles --------------------------------------------------------

/// Largest bit-vector or profile capacity the decoder accepts, in bits:
/// 51× the paper's 1,280-bit default. `ShiftingBitVector::starting_at`
/// allocates `capacity / 64` words up front, so an unchecked capacity
/// read off the wire could demand terabytes.
const MAX_CAPACITY_BITS: u64 = 1 << 16;

/// Reads a capacity: zero is a domain error, above
/// [`MAX_CAPACITY_BITS`] an implausible length.
fn read_capacity(r: &mut WireReader<'_>) -> Result<usize, WireError> {
    let cap64 = r.u64()?;
    if cap64 == 0 {
        return Err(WireError::BadValue);
    }
    if cap64 > MAX_CAPACITY_BITS {
        return Err(WireError::BadLength(cap64));
    }
    usize::try_from(cap64).map_err(|_| WireError::BadLength(cap64))
}

fn put_bitvec(out: &mut Vec<u8>, v: &ShiftingBitVector) {
    put_u64(out, v.capacity() as u64);
    put_u64(out, v.first_id());
    put_seq_len(out, v.count_ones());
    for id in v.iter_ids() {
        put_u64(out, id);
    }
}

fn read_bitvec(r: &mut WireReader<'_>) -> Result<ShiftingBitVector, WireError> {
    let capacity = read_capacity(r)?;
    let first_id = r.u64()?;
    // The window end must not overflow: `window_end()` computes
    // `first_id + capacity` internally.
    let end = first_id
        .checked_add(capacity as u64)
        .ok_or(WireError::BadValue)?;
    let n = r.seq_len()?;
    let mut v = ShiftingBitVector::starting_at(capacity, first_id);
    for _ in 0..n {
        let id = r.u64()?;
        if id < first_id || id >= end {
            return Err(WireError::BadValue);
        }
        v.record(id);
    }
    Ok(v)
}

fn put_profile(out: &mut Vec<u8>, p: &SubscriptionProfile) {
    put_u64(out, p.capacity() as u64);
    put_seq_len(out, p.publisher_count());
    for (adv, vector) in p.iter() {
        put_u64(out, adv.raw());
        put_bitvec(out, vector);
    }
}

fn read_profile(r: &mut WireReader<'_>) -> Result<SubscriptionProfile, WireError> {
    let capacity = read_capacity(r)?;
    let n = r.seq_len()?;
    let mut p = SubscriptionProfile::with_capacity(capacity);
    for _ in 0..n {
        let adv = AdvId::new(r.u64()?);
        let vector = read_bitvec(r)?;
        p.insert_vector(adv, vector);
    }
    Ok(p)
}

fn put_publisher_profile(out: &mut Vec<u8>, p: &PublisherProfile) {
    put_u64(out, p.adv_id.raw());
    put_f64(out, p.rate);
    put_f64(out, p.bandwidth);
    put_u64(out, p.last_msg_id.raw());
}

/// A publisher profile is four fixed 8-byte fields.
const PUBLISHER_PROFILE_LEN: usize = 4 * 8;

fn read_publisher_profile(r: &mut WireReader<'_>) -> Result<PublisherProfile, WireError> {
    let adv = AdvId::new(r.u64()?);
    let rate = r.f64()?;
    let bandwidth = r.f64()?;
    let last = MsgId::new(r.u64()?);
    Ok(PublisherProfile::new(adv, rate, bandwidth, last))
}

// --- broker information ----------------------------------------------

fn put_spec(out: &mut Vec<u8>, s: &BrokerSpec) {
    put_u64(out, s.id.raw());
    put_str(out, &s.url);
    put_f64(out, s.matching_delay.base);
    put_f64(out, s.matching_delay.per_sub);
    put_f64(out, s.out_bandwidth);
}

fn read_spec(r: &mut WireReader<'_>) -> Result<BrokerSpec, WireError> {
    let id = BrokerId::new(r.u64()?);
    let url = r.str()?;
    let base = r.f64()?;
    let per_sub = r.f64()?;
    let out_bandwidth = r.f64()?;
    Ok(BrokerSpec::new(
        id,
        url,
        LinearFn::new(base, per_sub),
        out_bandwidth,
    ))
}

fn put_sub_entry(out: &mut Vec<u8>, e: &SubscriptionEntry) {
    put_u64(out, e.id.raw());
    put_filter(out, &e.filter);
    put_profile(out, &e.profile);
}

/// Smallest subscription entry: the id, an empty filter's count, and
/// an empty profile's capacity and count.
const MIN_SUB_ENTRY_LEN: usize = 8 + 4 + 8 + 4;

fn read_sub_entry(r: &mut WireReader<'_>) -> Result<SubscriptionEntry, WireError> {
    let id = SubId::new(r.u64()?);
    let filter = read_filter(r)?;
    let profile = read_profile(r)?;
    Ok(SubscriptionEntry::new(id, filter, profile))
}

fn put_gathered(out: &mut Vec<u8>, g: &GatheredBroker) {
    put_spec(out, &g.spec);
    put_seq_len(out, g.subscriptions.len());
    for s in &g.subscriptions {
        put_sub_entry(out, s);
    }
    put_seq_len(out, g.publishers.len());
    for p in &g.publishers {
        put_publisher_profile(out, p);
    }
}

/// Smallest gathered broker: a spec with an empty URL (id, URL
/// length, three `f64`s) and two empty counts.
const MIN_GATHERED_LEN: usize = 8 + 4 + 3 * 8 + 4 + 4;

fn read_gathered(r: &mut WireReader<'_>) -> Result<GatheredBroker, WireError> {
    let spec = read_spec(r)?;
    let n_subs = r.seq_len_of(MIN_SUB_ENTRY_LEN)?;
    let mut subscriptions = Vec::with_capacity(n_subs);
    for _ in 0..n_subs {
        subscriptions.push(read_sub_entry(r)?);
    }
    let n_pubs = r.seq_len_of(PUBLISHER_PROFILE_LEN)?;
    let mut publishers = Vec::with_capacity(n_pubs);
    for _ in 0..n_pubs {
        publishers.push(read_publisher_profile(r)?);
    }
    Ok(GatheredBroker {
        spec,
        subscriptions,
        publishers,
    })
}

// --- the message envelope --------------------------------------------

const TAG_CLIENT_HELLO: u8 = 0;
const TAG_ADVERTISE: u8 = 1;
const TAG_UNADVERTISE: u8 = 2;
const TAG_SUBSCRIBE: u8 = 3;
const TAG_UNSUBSCRIBE: u8 = 4;
const TAG_PUBLICATION: u8 = 5;
const TAG_BIR: u8 = 6;
const TAG_BIA: u8 = 7;

impl Wire for BrokerMsg {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            BrokerMsg::ClientHello { client } => {
                put_u8(out, TAG_CLIENT_HELLO);
                put_u64(out, client.raw());
            }
            BrokerMsg::Advertise(a) => {
                put_u8(out, TAG_ADVERTISE);
                put_u64(out, a.id.raw());
                put_filter(out, &a.filter);
            }
            BrokerMsg::Unadvertise(id) => {
                put_u8(out, TAG_UNADVERTISE);
                put_u64(out, id.raw());
            }
            BrokerMsg::Subscribe(s) => {
                put_u8(out, TAG_SUBSCRIBE);
                put_u64(out, s.id.raw());
                put_filter(out, &s.filter);
            }
            BrokerMsg::Unsubscribe(id) => {
                put_u8(out, TAG_UNSUBSCRIBE);
                put_u64(out, id.raw());
            }
            BrokerMsg::Publication(e) => {
                put_u8(out, TAG_PUBLICATION);
                put_envelope(out, e);
            }
            BrokerMsg::Bir { request } => {
                put_u8(out, TAG_BIR);
                put_u64(out, *request);
            }
            BrokerMsg::Bia { request, infos } => {
                put_u8(out, TAG_BIA);
                put_u64(out, *request);
                put_seq_len(out, infos.len());
                for g in infos {
                    put_gathered(out, g);
                }
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            TAG_CLIENT_HELLO => Ok(BrokerMsg::ClientHello {
                client: ClientId::new(r.u64()?),
            }),
            TAG_ADVERTISE => {
                let id = AdvId::new(r.u64()?);
                let filter = read_filter(r)?;
                Ok(BrokerMsg::Advertise(Advertisement::new(id, filter)))
            }
            TAG_UNADVERTISE => Ok(BrokerMsg::Unadvertise(AdvId::new(r.u64()?))),
            TAG_SUBSCRIBE => {
                let id = SubId::new(r.u64()?);
                let filter = read_filter(r)?;
                Ok(BrokerMsg::Subscribe(Subscription::new(id, filter)))
            }
            TAG_UNSUBSCRIBE => Ok(BrokerMsg::Unsubscribe(SubId::new(r.u64()?))),
            TAG_PUBLICATION => Ok(BrokerMsg::Publication(read_envelope(r)?)),
            TAG_BIR => Ok(BrokerMsg::Bir { request: r.u64()? }),
            TAG_BIA => {
                let request = r.u64()?;
                let n = r.seq_len_of(MIN_GATHERED_LEN)?;
                let mut infos = Vec::with_capacity(n);
                for _ in 0..n {
                    infos.push(read_gathered(r)?);
                }
                Ok(BrokerMsg::Bia { request, infos })
            }
            t => Err(WireError::BadTag(t)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use greenps_net::wire::decode_exact;
    use greenps_pubsub::filter::stock_template;

    fn round_trip(msg: &BrokerMsg) -> (Vec<u8>, BrokerMsg) {
        let mut buf = Vec::new();
        msg.encode(&mut buf);
        let back: BrokerMsg = decode_exact(&buf).expect("decode");
        (buf, back)
    }

    fn re_encode(msg: &BrokerMsg) -> Vec<u8> {
        let mut buf = Vec::new();
        msg.encode(&mut buf);
        buf
    }

    #[test]
    fn publication_round_trips_byte_stably() {
        let p = Publication::builder(AdvId::new(3), MsgId::new(99))
            .attr("class", "STOCK")
            .attr("close", 18.37)
            .attr("volume", 40_000i64)
            .attr("closeEqualsLow", true)
            .build();
        let msg = BrokerMsg::Publication(PubEnvelope::new(p, SimTime::from_micros(77)));
        let (bytes, back) = round_trip(&msg);
        assert_eq!(re_encode(&back), bytes);
    }

    #[test]
    fn bia_with_profiles_round_trips() {
        let mut profile = SubscriptionProfile::with_capacity(64);
        let mut v = ShiftingBitVector::starting_at(64, 10);
        v.record(12);
        v.record(63);
        profile.insert_vector(AdvId::new(7), v);
        let info = GatheredBroker {
            spec: BrokerSpec::new(BrokerId::new(2), "b2.local", LinearFn::new(0.5, 0.01), 1e6),
            subscriptions: vec![SubscriptionEntry::new(
                SubId::new(5),
                stock_template("YHOO"),
                profile,
            )],
            publishers: vec![PublisherProfile::new(
                AdvId::new(7),
                10.0,
                320.0,
                MsgId::new(63),
            )],
        };
        let msg = BrokerMsg::Bia {
            request: 42,
            infos: vec![info],
        };
        let (bytes, back) = round_trip(&msg);
        assert_eq!(re_encode(&back), bytes);
    }

    #[test]
    fn truncation_and_bad_tags_are_typed_errors() {
        let mut buf = Vec::new();
        BrokerMsg::Bir { request: 9 }.encode(&mut buf);
        buf.truncate(buf.len() - 1);
        assert!(matches!(
            decode_exact::<BrokerMsg>(&buf),
            Err(WireError::Truncated)
        ));
        assert!(matches!(
            decode_exact::<BrokerMsg>(&[200]),
            Err(WireError::BadTag(200))
        ));
    }

    #[test]
    fn zero_capacity_bitvec_is_rejected_not_a_panic() {
        let mut buf = Vec::new();
        put_u64(&mut buf, 0); // capacity
        put_u64(&mut buf, 0); // first_id
        put_seq_len(&mut buf, 0);
        let mut r = WireReader::new(&buf);
        assert!(matches!(read_bitvec(&mut r), Err(WireError::BadValue)));
    }

    #[test]
    fn hostile_capacity_is_rejected_before_allocating() {
        // 2^44 bits would make `starting_at` allocate 2^38 words.
        let mut bitvec = Vec::new();
        put_u64(&mut bitvec, 1 << 44); // capacity
        put_u64(&mut bitvec, 0); // first_id
        put_seq_len(&mut bitvec, 0);
        let mut r = WireReader::new(&bitvec);
        assert!(matches!(
            read_bitvec(&mut r),
            Err(WireError::BadLength(n)) if n == 1 << 44
        ));

        let mut profile = Vec::new();
        put_u64(&mut profile, u64::MAX); // capacity
        put_seq_len(&mut profile, 0);
        let mut r = WireReader::new(&profile);
        assert!(matches!(
            read_profile(&mut r),
            Err(WireError::BadLength(u64::MAX))
        ));

        // The bound itself still decodes.
        let mut edge = Vec::new();
        put_u64(&mut edge, MAX_CAPACITY_BITS);
        put_u64(&mut edge, 7);
        put_seq_len(&mut edge, 1);
        put_u64(&mut edge, 9);
        let v = read_bitvec(&mut WireReader::new(&edge)).expect("bound decodes");
        assert_eq!(v.capacity() as u64, MAX_CAPACITY_BITS);
        assert!(v.contains(9));
    }

    #[test]
    fn minimum_lengths_are_the_smallest_encodings() {
        let mut buf = Vec::new();
        put_predicate(&mut buf, &Predicate::new("", Op::Eq, Value::Bool(false)));
        assert_eq!(buf.len(), MIN_PREDICATE_LEN);

        let mut buf = Vec::new();
        let empty = greenps_pubsub::filter::Filter::from_predicates(Vec::new());
        let entry =
            SubscriptionEntry::new(SubId::new(1), empty, SubscriptionProfile::with_capacity(1));
        put_sub_entry(&mut buf, &entry);
        assert_eq!(buf.len(), MIN_SUB_ENTRY_LEN);

        let mut buf = Vec::new();
        put_publisher_profile(
            &mut buf,
            &PublisherProfile::new(AdvId::new(1), 1.0, 1.0, MsgId::new(1)),
        );
        assert_eq!(buf.len(), PUBLISHER_PROFILE_LEN);

        let mut buf = Vec::new();
        let info = GatheredBroker {
            spec: BrokerSpec::new(BrokerId::new(1), "", LinearFn::new(0.0, 0.0), 1.0),
            subscriptions: Vec::new(),
            publishers: Vec::new(),
        };
        put_gathered(&mut buf, &info);
        assert_eq!(buf.len(), MIN_GATHERED_LEN);
    }

    #[test]
    fn bia_count_beyond_the_frame_is_rejected_before_reserving() {
        // A zero-filled body holds `remaining / 44` empty brokers at
        // most; a count of `remaining / 2` must fail on the count, not
        // after reserving 104-byte slots for it.
        let body = 4_096;
        let mut buf = Vec::new();
        put_u8(&mut buf, TAG_BIA);
        put_u64(&mut buf, 1); // request
        put_seq_len(&mut buf, body / 2);
        buf.resize(buf.len() + body, 0);
        let n = (body / 2) as u64;
        assert!(matches!(
            decode_exact::<BrokerMsg>(&buf),
            Err(WireError::BadLength(got)) if got == n
        ));
    }
}
