//! Failure injection: corrupted container files and packet payloads must
//! surface errors, never panic or loop.

use proptest::prelude::*;
use v2v_codec::CodecParams;
use v2v_container::{read_svc, write_svc, StreamWriter, VideoStream};
use v2v_frame::{Frame, FrameType};
use v2v_time::{r, Rational};

fn sample_stream() -> VideoStream {
    let ty = FrameType::yuv420p(32, 32);
    let params = CodecParams::new(ty, 4, 2);
    let mut w = StreamWriter::new(params, Rational::ZERO, r(1, 30));
    for i in 0..10 {
        let mut f = Frame::black(ty);
        for v in f.plane_mut(0).data_mut() {
            *v = (i * 20 % 256) as u8;
        }
        w.push_frame(&f).unwrap();
    }
    w.finish().unwrap()
}

/// A scratch path private to this process and to the `test` using it,
/// so concurrent test binaries and tests never share a file.
fn tmp(test: &str, name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("v2v_corruption_{}_{test}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Flipping any single byte of a container file either still loads a
    /// structurally consistent stream or fails cleanly — no panics.
    #[test]
    fn single_byte_flip_never_panics(pos_frac in 0.0f64..1.0, xor in 1u8..=255) {
        let s = sample_stream();
        let path = tmp("single_byte_flip_never_panics", &format!("flip_{pos_frac:.6}_{xor}.svc"));
        write_svc(&s, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
        bytes[pos] ^= xor;
        std::fs::write(&path, &bytes).unwrap();
        if let Ok(stream) = read_svc(&path) {
            // Loaded despite the flip (payload-only damage): decoding must
            // not panic either, whatever it returns.
            let _ = stream.decode_range(0, stream.len());
        }
        std::fs::remove_file(&path).unwrap();
    }

    /// Truncating a container file at any point fails cleanly or loads a
    /// consistent prefix.
    #[test]
    fn truncation_never_panics(keep_frac in 0.0f64..1.0) {
        let s = sample_stream();
        let path = tmp("truncation_never_panics", &format!("trunc_{keep_frac:.6}.svc"));
        write_svc(&s, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let keep = (bytes.len() as f64 * keep_frac) as usize;
        std::fs::write(&path, &bytes[..keep]).unwrap();
        if let Ok(stream) = read_svc(&path) {
            let _ = stream.decode_range(0, stream.len());
        }
        std::fs::remove_file(&path).unwrap();
    }

    /// Random garbage is rejected (or at worst decodes to errors).
    #[test]
    fn random_garbage_rejected(data in prop::collection::vec(any::<u8>(), 0..512)) {
        let path = tmp("random_garbage_rejected", &format!("garbage_{}.svc", data.len()));
        std::fs::write(&path, &data).unwrap();
        if let Ok(stream) = read_svc(&path) {
            let _ = stream.decode_range(0, stream.len());
        }
        std::fs::remove_file(&path).unwrap();
    }
}
