//! The binary payload of the supervisor's stage checkpoints.
//!
//! A checkpoint is framed by the [`crate::artifact`] container (magic,
//! version, stage kind byte `0x10 +` stage index, config fingerprint,
//! CRC32). Its payload is little-endian binary in the
//! [`drcshap_geom::codec`] rules:
//!
//! ```text
//! size  field
//!    1  codec version (CODEC_VERSION = 1)
//!   32  ChaCha8 seed          ┐
//!    8  ChaCha8 stream, u64   ├ RNG state after the stage
//!   16  word position, u128   ┘
//!    1  degraded flag (0 / 1)
//!    1  payload tag: 0 design, 1 route outcome, 2 DRC report, 3 features
//!    —  the stage output (`Design`, `RouteOutcome`, `DrcReport` or
//!       `FeatureMatrix`), exactly to the end of the payload
//! ```
//!
//! A payload whose first byte is not [`CODEC_VERSION`] — such as a JSON
//! checkpoint (first byte `{`) written by a build before the binary
//! encoding — is rejected as an unsupported encoding, and the supervisor
//! recomputes the stage.

use drcshap_drc::DrcReport;
use drcshap_features::FeatureMatrix;
use drcshap_geom::codec::{decode_exact, CodecError, Decode, Encode, Reader};
use drcshap_netlist::Design;
use drcshap_route::RouteOutcome;
use rand_chacha::ChaCha8Rng;

use crate::artifact::decode_container;
use crate::supervisor::{RngSnapshot, Stage};

/// Layout version of the checkpoint payload; its first byte.
pub(crate) const CODEC_VERSION: u8 = 1;

/// The output of one completed stage, as restored from its checkpoint.
#[derive(Debug)]
pub(crate) enum StagePayload {
    /// Synth and Place checkpoints both store the (partially built) design.
    Design(Box<Design>),
    /// Route checkpoint: the routing outcome.
    Route(Box<RouteOutcome>),
    /// DRC checkpoint: the labelling report.
    Drc(Box<DrcReport>),
    /// Extract checkpoint: the feature matrix.
    Extract(Box<FeatureMatrix>),
}

/// The payload tag of the output `stage` stores.
fn payload_tag(stage: Stage) -> u8 {
    match stage {
        Stage::Synth | Stage::Place => 0,
        Stage::Route => 1,
        Stage::Drc => 2,
        Stage::Extract => 3,
    }
}

/// One stage checkpoint: the stage's output, the RNG state *after* the
/// stage, and whether the stage finished degraded.
#[derive(Debug)]
pub(crate) struct Checkpoint {
    pub(crate) rng: RngSnapshot,
    pub(crate) degraded: bool,
    pub(crate) payload: StagePayload,
}

/// Encodes the checkpoint payload of `stage`, whose output is `output`
/// (the design for synth and place, then the route outcome, the DRC
/// report and the feature matrix).
pub(crate) fn encode(
    stage: Stage,
    rng: &ChaCha8Rng,
    degraded: bool,
    output: &dyn Encode,
) -> Vec<u8> {
    let mut out = vec![CODEC_VERSION];
    RngSnapshot::capture(rng).encode(&mut out);
    degraded.encode(&mut out);
    out.push(payload_tag(stage));
    output.encode(&mut out);
    out
}

/// Decodes the checkpoint payload of `stage`.
///
/// # Errors
///
/// [`CodecError::UnsupportedVersion`] for a payload from another encoding
/// (a JSON checkpoint starts with `{`); [`CodecError::BadTag`] when the
/// payload holds another stage's output; any other [`CodecError`] when the
/// bytes are malformed.
pub(crate) fn decode(stage: Stage, payload: &[u8]) -> Result<Checkpoint, CodecError> {
    let mut r = Reader::new(payload);
    let version = r.tag()?;
    if version != CODEC_VERSION {
        return Err(CodecError::UnsupportedVersion { found: version, supported: CODEC_VERSION });
    }
    let rng = RngSnapshot::decode(&mut r)?;
    let degraded = bool::decode(&mut r)?;
    let tag = r.tag()?;
    if tag != payload_tag(stage) {
        return Err(CodecError::BadTag { what: "stage payload", tag });
    }
    let body = r.rest();
    let payload = match stage {
        Stage::Synth | Stage::Place => StagePayload::Design(Box::new(decode_exact(body)?)),
        Stage::Route => StagePayload::Route(Box::new(decode_exact(body)?)),
        Stage::Drc => StagePayload::Drc(Box::new(decode_exact(body)?)),
        Stage::Extract => StagePayload::Extract(Box::new(decode_exact(body)?)),
    };
    Ok(Checkpoint { rng, degraded, payload })
}

/// Validates a checkpoint file's container and decodes its payload.
/// `Err(detail)` means the file is unusable (corrupt, wrong kind, wrong
/// fingerprint, unsupported encoding) and the stage must be recomputed.
pub(crate) fn parse(bytes: &[u8], stage: Stage, fingerprint: u64) -> Result<Checkpoint, String> {
    let (kind, payload) = decode_container(bytes, fingerprint).map_err(|e| e.to_string())?;
    if kind != stage.code() {
        return Err(format!("kind byte {kind:#04x} is not a {stage} checkpoint"));
    }
    decode(stage, payload).map_err(|e| match e {
        CodecError::UnsupportedVersion { found, supported } => format!(
            "unsupported checkpoint encoding: leading byte {found:#04x}{}, this build reads \
             binary version {supported}",
            if found == b'{' { " (a JSON checkpoint from an older build)" } else { "" }
        ),
        e => format!("{stage} checkpoint payload does not decode: {e}"),
    })
}

#[cfg(test)]
mod tests {
    use std::sync::OnceLock;
    use std::time::Duration;

    use drcshap_drc::run_drc;
    use drcshap_features::extract_design;
    use drcshap_geom::budget::StageBudget;
    use drcshap_netlist::{suite, synth};
    use drcshap_place::place_budgeted;
    use drcshap_route::route_design_budgeted;
    use proptest::prelude::*;
    use rand::SeedableRng;

    use super::*;
    use crate::artifact::encode_container;
    use crate::pipeline::PipelineConfig;

    const FINGERPRINT: u64 = 0x5EED;

    /// One valid checkpoint payload per stage, plus a deadline-degraded
    /// route checkpoint, of a small design.
    struct Payloads {
        by_stage: Vec<(Stage, Vec<u8>)>,
        degraded_route: Vec<u8>,
    }

    /// Runs the five stages the way the supervisor does, encoding each
    /// output as it is produced.
    fn payloads() -> &'static Payloads {
        static PAYLOADS: OnceLock<Payloads> = OnceLock::new();
        PAYLOADS.get_or_init(|| {
            let config = PipelineConfig { scale: 0.1, ..Default::default() };
            let spec = suite::spec("fft_1").expect("suite design").scaled(config.scale);
            let route_cfg = config.route_for(&spec);
            let budget = StageBudget::unlimited();
            let mut rng = ChaCha8Rng::seed_from_u64(spec.seed());
            let mut design = Design::new(spec.clone());
            synth::generate_cells(&mut design, &mut rng);
            let mut by_stage = vec![(Stage::Synth, encode(Stage::Synth, &rng, false, &design))];
            place_budgeted(&mut design, &mut rng, &budget).expect("unlimited budget");
            synth::generate_nets(&mut design, &mut rng);
            by_stage.push((Stage::Place, encode(Stage::Place, &rng, false, &design)));
            let mut degraded_rng = rng.clone();
            let route = route_design_budgeted(&design, &route_cfg, &mut rng, &budget)
                .expect("unlimited budget");
            assert!(!route.status.is_degraded(), "{route}");
            by_stage.push((Stage::Route, encode(Stage::Route, &rng, false, &route)));
            let report = run_drc(&design, &route, &config.drc, &mut rng);
            by_stage.push((Stage::Drc, encode(Stage::Drc, &rng, false, &report)));
            let features = extract_design(&design, &route);
            by_stage.push((Stage::Extract, encode(Stage::Extract, &rng, false, &features)));

            let expired = StageBudget::with_deadline(Duration::ZERO);
            let degraded = route_design_budgeted(&design, &route_cfg, &mut degraded_rng, &expired)
                .expect("a deadline degrades, it does not interrupt");
            assert!(degraded.status.is_degraded(), "{degraded}");
            let degraded_route = encode(Stage::Route, &degraded_rng, true, &degraded);
            Payloads { by_stage, degraded_route }
        })
    }

    /// Re-encodes a decoded checkpoint; equal bytes mean nothing was lost.
    fn reencode(stage: Stage, checkpoint: &Checkpoint) -> Vec<u8> {
        let rng = checkpoint.rng.restore();
        let output: &dyn Encode = match &checkpoint.payload {
            StagePayload::Design(d) => d.as_ref(),
            StagePayload::Route(r) => r.as_ref(),
            StagePayload::Drc(r) => r.as_ref(),
            StagePayload::Extract(f) => f.as_ref(),
        };
        encode(stage, &rng, checkpoint.degraded, output)
    }

    #[test]
    fn every_stage_payload_re_encodes_to_identical_bytes() {
        let p = payloads();
        for (stage, bytes) in &p.by_stage {
            let checkpoint = decode(*stage, bytes).expect("valid checkpoint decodes");
            assert_eq!(&reencode(*stage, &checkpoint), bytes, "{stage} checkpoint drifted");
        }
        let checkpoint = decode(Stage::Route, &p.degraded_route).expect("degraded route decodes");
        assert!(checkpoint.degraded);
        let StagePayload::Route(route) = &checkpoint.payload else { panic!("route payload") };
        assert!(route.status.is_degraded(), "{route}");
        assert_eq!(reencode(Stage::Route, &checkpoint), p.degraded_route);
    }

    #[test]
    fn an_empty_design_round_trips() {
        let spec = suite::spec("fft_1").expect("suite design").scaled(0.1);
        let design = Design::new(spec);
        assert_eq!(design.netlist.num_cells(), 0);
        let rng = ChaCha8Rng::seed_from_u64(1);
        let bytes = encode(Stage::Synth, &rng, false, &design);
        let checkpoint = decode(Stage::Synth, &bytes).expect("decodes");
        assert_eq!(reencode(Stage::Synth, &checkpoint), bytes);
    }

    #[test]
    fn another_stages_payload_is_rejected() {
        let (_, drc) = &payloads().by_stage[3];
        assert!(matches!(
            decode(Stage::Route, drc),
            Err(CodecError::BadTag { what: "stage payload", tag: 2 })
        ));
        let container = encode_container(Stage::Drc.code(), FINGERPRINT, drc);
        let detail = parse(&container, Stage::Route, FINGERPRINT).unwrap_err();
        assert!(detail.contains("is not a route checkpoint"), "{detail}");
    }

    #[test]
    fn json_era_payload_is_an_unsupported_encoding() {
        let json = br#"{"rng":{"seed":[0],"stream":0},"degraded":false,"payload":{}}"#;
        let container = encode_container(Stage::Route.code(), FINGERPRINT, json);
        let detail = parse(&container, Stage::Route, FINGERPRINT).unwrap_err();
        assert!(detail.starts_with("unsupported checkpoint encoding"), "{detail}");
        assert!(detail.contains("JSON checkpoint"), "{detail}");
    }

    /// Decodes `payload` after re-framing it under a valid CRC, so the
    /// codec (not the checksum) is what meets the damage.
    fn reframed(stage: Stage, payload: &[u8]) -> Result<Checkpoint, CodecError> {
        let container = encode_container(stage.code(), FINGERPRINT, payload);
        let (_, body) = decode_container(&container, FINGERPRINT).expect("valid framing");
        decode(stage, body)
    }

    /// Offsets of length prefixes in each stage's payload: the first field
    /// of every output is a vector or string, and the feature matrix and
    /// DRC report end with one.
    fn length_prefix_offsets(stage: Stage, payload: &[u8]) -> Vec<usize> {
        let header = 1 + 32 + 8 + 16 + 1 + 1;
        match stage {
            // The spec name.
            Stage::Synth | Stage::Place => vec![header],
            // Complete status tag, then nx and ny, then the edge capacities.
            Stage::Route => vec![header + 1 + 8],
            // The violations, then the risk vector of 8-byte floats.
            Stage::Drc => {
                let Ok(Checkpoint { payload: StagePayload::Drc(r), .. }) = decode(stage, payload)
                else {
                    panic!("DRC payload")
                };
                vec![header, payload.len() - 8 - 8 * r.risk.len()]
            }
            // The schema descriptors, then the data vector of 4-byte floats.
            Stage::Extract => {
                let Ok(Checkpoint { payload: StagePayload::Extract(f), .. }) =
                    decode(stage, payload)
                else {
                    panic!("extract payload")
                };
                let values = f.n_samples() * f.n_features();
                vec![header, payload.len() - 8 - 4 * values]
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// Every truncation of a valid payload is a typed error.
        #[test]
        fn truncated_payloads_are_typed_errors(which in 0usize..5, keep_frac in 0.0f64..1.0) {
            let (stage, good) = &payloads().by_stage[which];
            let keep = ((good.len() - 1) as f64 * keep_frac) as usize;
            prop_assert!(reframed(*stage, &good[..keep]).is_err());
        }

        /// A flipped bit either still decodes (it landed in a value, such
        /// as a float, that every bit pattern encodes) or is a typed error;
        /// it never panics and never allocates from a corrupted length.
        #[test]
        fn flipped_bits_never_panic(which in 0usize..5, bit in 0usize..usize::MAX) {
            let (stage, good) = &payloads().by_stage[which];
            let mut bad = good.clone();
            let bit = bit % (bad.len() * 8);
            bad[bit / 8] ^= 1 << (bit % 8);
            if let Ok(checkpoint) = reframed(*stage, &bad) {
                prop_assert_eq!(reencode(*stage, &checkpoint).len(), bad.len());
            }
        }

        /// A length prefix larger than the bytes that follow it is
        /// rejected before anything is allocated for it.
        #[test]
        fn absurd_length_prefixes_are_rejected(
            which in 0usize..5,
            pick in 0usize..2,
            len in (1u64 << 40)..u64::MAX,
        ) {
            let (stage, good) = &payloads().by_stage[which];
            let offsets = length_prefix_offsets(*stage, good);
            let at = offsets[pick % offsets.len()];
            let mut bad = good.clone();
            bad[at..at + 8].copy_from_slice(&len.to_le_bytes());
            let e = reframed(*stage, &bad).unwrap_err();
            prop_assert!(matches!(e, CodecError::LengthTooLarge { .. }), "{e}");
        }
    }
}
