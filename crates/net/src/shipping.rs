//! The compressed-vs-raw shipping decision (experiment E3).
//!
//! The paper's worked example of case-by-case energy optimization (§IV):
//! *"an optimizer has to decide about sending intermediate data in a
//! compressed or uncompressed format to other nodes or even sockets on
//! the same board. In the former case, the system has to spend time and
//! energy for (de-)compression but saves time and energy for the
//! communication path. Since both cost factors are independent, the
//! optimizer has to decide on a case-by-case basis."*
//!
//! [`decide`] implements exactly that: it costs both alternatives in
//! time *and* energy and picks per the requested [`Objective`].

use crate::topology::LinkSpec;
use haec_energy::units::{ByteCount, Joules, Watts};
use std::fmt;
use std::time::Duration;

/// What the decision optimizes for.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Objective {
    /// Minimize transfer completion time.
    MinTime,
    /// Minimize total energy.
    MinEnergy,
}

impl fmt::Display for Objective {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Objective::MinTime => f.write_str("min-time"),
            Objective::MinEnergy => f.write_str("min-energy"),
        }
    }
}

/// Compressor characteristics for the payload at hand.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CompressorSpec {
    /// Achievable compression ratio (raw/compressed, > 1 compresses).
    pub ratio: f64,
    /// Compression throughput in bytes/second (of raw input).
    pub compress_bps: f64,
    /// Decompression throughput in bytes/second (of raw output).
    pub decompress_bps: f64,
    /// CPU power drawn by one core running the codec.
    pub core_power: Watts,
}

impl CompressorSpec {
    /// A lightweight (RLE/dictionary-class) codec: fast, modest ratio.
    pub fn lightweight(ratio: f64) -> Self {
        CompressorSpec { ratio, compress_bps: 3.0e9, decompress_bps: 5.0e9, core_power: Watts::new(12.0) }
    }

    /// A heavyweight (LZ-class) codec: slower, better ratio.
    pub fn heavyweight(ratio: f64) -> Self {
        CompressorSpec { ratio, compress_bps: 300.0e6, decompress_bps: 800.0e6, core_power: Watts::new(14.0) }
    }
}

/// Cost of one shipping alternative.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ShipCost {
    /// End-to-end completion time (codec + wire).
    pub time: Duration,
    /// Total energy (codec CPU + wire).
    pub energy: Joules,
    /// Bytes that actually crossed the wire.
    pub wire_bytes: ByteCount,
}

/// The decision with both alternatives' costs, for inspection.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ShippingChoice {
    /// `true` if compression won.
    pub compress: bool,
    /// Cost of shipping raw.
    pub raw: ShipCost,
    /// Cost of shipping compressed.
    pub compressed: ShipCost,
}

/// Costs shipping `payload` raw over `link`.
fn cost_raw(payload: ByteCount, link: &LinkSpec) -> ShipCost {
    ShipCost { time: link.transfer_time(payload), energy: link.transfer_energy(payload), wire_bytes: payload }
}

/// Costs shipping `payload` compressed with `codec` over `link`
/// (compress at sender, wire, decompress at receiver — the codec phases
/// pipeline poorly for a single intermediate, so they serialize, which
/// matches how operators hand off whole intermediates).
fn cost_compressed(payload: ByteCount, codec: &CompressorSpec, link: &LinkSpec) -> ShipCost {
    let raw_bytes = payload.bytes() as f64;
    let wire = ByteCount::new((raw_bytes / codec.ratio).ceil() as u64);
    let t_compress = Duration::from_secs_f64(raw_bytes / codec.compress_bps);
    let t_decompress = Duration::from_secs_f64(raw_bytes / codec.decompress_bps);
    let t_wire = link.transfer_time(wire);
    let e_codec = codec.core_power * (t_compress + t_decompress);
    let e_wire = link.transfer_energy(wire);
    ShipCost { time: t_compress + t_wire + t_decompress, energy: e_codec + e_wire, wire_bytes: wire }
}

/// Decides raw vs compressed for `payload` over `link` under
/// `objective`.
pub fn decide(
    payload: ByteCount,
    codec: &CompressorSpec,
    link: &LinkSpec,
    objective: Objective,
) -> ShippingChoice {
    let raw = cost_raw(payload, link);
    let compressed = cost_compressed(payload, codec, link);
    let compress = match objective {
        Objective::MinTime => compressed.time < raw.time,
        Objective::MinEnergy => compressed.energy.joules() < raw.energy.joules(),
    };
    ShippingChoice { compress, raw, compressed }
}

/// The link bandwidth (bytes/s) at which raw and compressed shipping
/// take equal *time* — the crossover experiment E3 sweeps across. Below
/// this bandwidth, compression wins on time; above it, raw wins.
///
/// Returns `None` if compression never pays (ratio ≤ 1 or codec slower
/// than any wire).
pub fn time_crossover_bandwidth(codec: &CompressorSpec) -> Option<f64> {
    // t_raw(b) = B/bw ; t_comp(b) = B/c + B/d + (B/r)/bw
    // equal ⇔ bw* = (1 - 1/r) / (1/c + 1/d)
    if codec.ratio <= 1.0 {
        return None;
    }
    let codec_secs_per_byte = 1.0 / codec.compress_bps + 1.0 / codec.decompress_bps;
    let saved_fraction = 1.0 - 1.0 / codec.ratio;
    let bw = saved_fraction / codec_secs_per_byte;
    (bw > 0.0).then_some(bw)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::LinkClass;

    fn slow_link() -> LinkSpec {
        LinkSpec::default_for(LinkClass::Ethernet1G)
    }

    fn fast_link() -> LinkSpec {
        LinkSpec::default_for(LinkClass::IntraBoard)
    }

    #[test]
    fn slow_link_wants_compression() {
        let codec = CompressorSpec::lightweight(4.0);
        let choice = decide(ByteCount::from_mib(256), &codec, &slow_link(), Objective::MinTime);
        assert!(choice.compress, "raw {:?} vs comp {:?}", choice.raw.time, choice.compressed.time);
        assert!(choice.compressed.wire_bytes.bytes() < choice.raw.wire_bytes.bytes());
    }

    #[test]
    fn fast_link_wants_raw() {
        let codec = CompressorSpec::heavyweight(4.0);
        let choice = decide(ByteCount::from_mib(256), &codec, &fast_link(), Objective::MinTime);
        assert!(!choice.compress, "raw {:?} vs comp {:?}", choice.raw.time, choice.compressed.time);
    }

    #[test]
    fn objectives_can_disagree() {
        // Construct a case where compression saves energy but costs
        // time: cheap-energy codec, link with high pJ/B but high
        // bandwidth.
        let codec = CompressorSpec {
            ratio: 5.0,
            compress_bps: 1.0e9,
            decompress_bps: 2.0e9,
            core_power: Watts::new(2.0),
        };
        let link = LinkSpec {
            bandwidth: 20.0e9,
            latency: Duration::from_micros(1),
            pj_per_byte: 5000.0,
            idle_w: 1.0,
        };
        let payload = ByteCount::from_mib(256);
        let by_time = decide(payload, &codec, &link, Objective::MinTime);
        let by_energy = decide(payload, &codec, &link, Objective::MinEnergy);
        assert!(!by_time.compress, "fast wire → raw wins on time");
        assert!(by_energy.compress, "expensive wire joules → compression wins on energy");
    }

    #[test]
    fn crossover_bandwidth_separates_regimes() {
        let codec = CompressorSpec::lightweight(4.0);
        let bw = time_crossover_bandwidth(&codec).unwrap();
        let payload = ByteCount::from_gib(1);
        // Just below crossover: compression wins on time.
        let below = LinkSpec { bandwidth: bw * 0.5, latency: Duration::ZERO, pj_per_byte: 10.0, idle_w: 0.0 };
        assert!(decide(payload, &codec, &below, Objective::MinTime).compress);
        // Just above: raw wins.
        let above = LinkSpec { bandwidth: bw * 2.0, latency: Duration::ZERO, pj_per_byte: 10.0, idle_w: 0.0 };
        assert!(!decide(payload, &codec, &above, Objective::MinTime).compress);
    }

    #[test]
    fn no_crossover_without_compression_gain() {
        let codec = CompressorSpec::lightweight(1.0);
        assert_eq!(time_crossover_bandwidth(&codec), None);
        let codec = CompressorSpec::lightweight(0.8);
        assert_eq!(time_crossover_bandwidth(&codec), None);
    }

    #[test]
    fn higher_ratio_never_hurts() {
        let link = slow_link();
        let payload = ByteCount::from_mib(64);
        let lo = cost_compressed(payload, &CompressorSpec::lightweight(2.0), &link);
        let hi = cost_compressed(payload, &CompressorSpec::lightweight(8.0), &link);
        assert!(hi.time <= lo.time);
        assert!(hi.energy.joules() <= lo.energy.joules());
        assert!(hi.wire_bytes < lo.wire_bytes);
    }

    #[test]
    fn chosen_returns_winner() {
        let codec = CompressorSpec::lightweight(4.0);
        let c = decide(ByteCount::from_mib(64), &codec, &slow_link(), Objective::MinTime);
        assert!(c.compress);
        assert!(c.compressed.time < c.raw.time);
    }

    #[test]
    fn zero_payload_is_free() {
        let codec = CompressorSpec::lightweight(4.0);
        let c = decide(ByteCount::ZERO, &codec, &slow_link(), Objective::MinEnergy);
        assert_eq!(c.raw.energy, Joules::ZERO);
        assert_eq!(c.compressed.wire_bytes, ByteCount::ZERO);
    }

    #[test]
    fn display() {
        assert_eq!(format!("{}", Objective::MinEnergy), "min-energy");
    }
}
