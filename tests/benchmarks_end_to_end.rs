//! Each benchmark program flows through the entire pipeline: front end,
//! analysis, dispatch, and (for the lighter ones) distributed execution.
//!
//! The heavyweight parameter sweeps live in the experiment harness
//! (`crates/bench`); these tests assert the structural facts the paper's
//! Table 3 / Table 4 report.

use offload_benchmarks::{all, rawcaudio, rawdaudio};
use offload_runtime::{DeviceModel, Simulator};

#[test]
fn table3_shape() {
    let benchmarks = all();
    assert_eq!(benchmarks.len(), 6);
    for b in &benchmarks {
        // Sources are real programs, not stubs.
        assert!(
            b.source_lines() > 50,
            "{}: {} lines",
            b.name,
            b.source_lines()
        );
        assert!(!b.description.is_empty());
        let checked = offload_lang::frontend(&b.source).expect(b.name);
        assert!(checked.program.functions.len() >= 2, "{}", b.name);
    }
}

#[test]
fn rawcaudio_analyzes_and_roundtrips() {
    let b = rawcaudio();
    let a = b.analyze().expect("analysis");
    assert!(!a.tcfg.tasks().is_empty());
    assert!(!a.partition.choices.is_empty());
    // Dispatch works at the default parameters.
    let idx = a.select(&b.default_params).expect("dispatch");
    // Execution under the dispatched plan matches the local run.
    let sim = Simulator::new(&a, DeviceModel::ipaq_testbed());
    let params = [64i64];
    let input = (b.make_input)(&params);
    let local = sim.run_local(&params, &input).expect("local run");
    assert_eq!(local.outputs.len(), 64);
    let run = sim
        .run_choice(idx, &params, &input)
        .expect("dispatched run");
    assert_eq!(run.outputs, local.outputs);
}

#[test]
fn adpcm_compress_decompress_roundtrip() {
    // Compressing then decompressing through the two benchmark programs
    // reconstructs a waveform close to the original (ADPCM is lossy).
    let enc = rawcaudio();
    let dec = rawdaudio();
    let enc_a = enc.analyze().expect("encode analysis");
    let dec_a = dec.analyze().expect("decode analysis");
    let enc_sim = Simulator::new(&enc_a, DeviceModel::ipaq_testbed());
    let dec_sim = Simulator::new(&dec_a, DeviceModel::ipaq_testbed());

    let n = 96i64;
    // A smooth ramp keeps ADPCM's tracking error tiny.
    let wave: Vec<i64> = (0..n).map(|i| i * 8).collect();
    let codes = enc_sim.run_local(&[n], &wave).expect("encode").outputs;
    assert_eq!(codes.len(), wave.len());
    let decoded = dec_sim.run_local(&[n], &codes).expect("decode").outputs;
    assert_eq!(decoded.len(), wave.len());
    // Skip the attack phase, then require close tracking.
    for (i, (orig, dec)) in wave.iter().zip(&decoded).enumerate().skip(16) {
        assert!(
            (orig - dec).abs() < 96,
            "sample {i}: {orig} vs {dec} drifted"
        );
    }
}

#[test]
fn benchmark_inputs_sized_correctly() {
    for b in all() {
        let input = (b.make_input)(&b.default_params);
        match b.name {
            "rawcaudio" | "rawdaudio" => {
                assert_eq!(input.len() as i64, b.default_params[0], "{}", b.name)
            }
            "encode" | "decode" => assert_eq!(
                input.len() as i64,
                b.default_params[2] * b.default_params[3],
                "{}",
                b.name
            ),
            "fft" => assert!(input.is_empty(), "fft synthesizes its waveform"),
            "susan" => assert_eq!(
                input.len() as i64,
                b.default_params[3] * b.default_params[4],
                "{}",
                b.name
            ),
            other => panic!("unknown benchmark {other}"),
        }
    }
}
