//! Stress test for [`GopCache`]'s exactly-once decode guarantee: many
//! threads racing over overlapping GOP ranges must trigger exactly one
//! decode per unique GOP, share the decoded frames, and never deadlock.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use v2v_exec::{GopCache, GopFrames};
use v2v_frame::{marker, Frame, FrameType};

const THREADS: usize = 16;
const GOPS: u64 = 24;
const VIDEOS: [&str; 2] = ["a", "b"];
const FRAMES_PER_GOP: usize = 4;

/// A fake decode: frames whose markers encode (video, gop) so sharing
/// across threads can be verified against the key that was asked for.
fn decode(video_idx: usize, gop: u64) -> GopFrames {
    let ty = FrameType::gray8(64, 32);
    let frames = (0..FRAMES_PER_GOP)
        .map(|k| {
            let mut f = Frame::black(ty);
            marker::embed(
                &mut f,
                (video_idx as u32) << 16 | (gop as u32) << 4 | k as u32,
            );
            Arc::new(f)
        })
        .collect::<Vec<_>>();
    Arc::new(frames)
}

#[test]
fn sixteen_threads_decode_each_gop_exactly_once() {
    // Capacity far above the working set: an eviction would force a
    // legitimate second decode and invalidate the exactly-once count.
    let cache = Arc::new(GopCache::new(1_000_000));
    let decodes = Arc::new(AtomicU64::new(0));
    let barrier = Arc::new(Barrier::new(THREADS));

    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let cache = Arc::clone(&cache);
            let decodes = Arc::clone(&decodes);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                let mut served = 0u64;
                // Each thread walks every (video, gop) pair, but starts
                // at a different offset and strides differently, so at
                // any instant many threads contend on the same key
                // while others race ahead.
                let total = VIDEOS.len() as u64 * GOPS;
                let stride = (t as u64 % 5) + 1;
                for i in 0..total {
                    let j = (t as u64 + i * stride) % total;
                    let (vi, gop) = ((j / GOPS) as usize, j % GOPS);
                    let (frames, _was_hit) = cache
                        .get_or_insert_with::<std::convert::Infallible>(VIDEOS[vi], gop, || {
                            decodes.fetch_add(1, Ordering::Relaxed);
                            // Widen the race window so concurrent
                            // requesters of this key pile up on the
                            // condvar rather than winning by luck.
                            std::thread::sleep(std::time::Duration::from_micros(200));
                            Ok(decode(vi, gop))
                        })
                        .expect("decode is infallible");
                    assert_eq!(frames.len(), FRAMES_PER_GOP);
                    // The shared frames must be the ones for the key we
                    // asked for, not some other racer's GOP.
                    let m = marker::read(&frames[0]).expect("marker frame");
                    assert_eq!(m, (vi as u32) << 16 | (gop as u32) << 4);
                    served += 1;
                }
                served
            })
        })
        .collect();

    let mut total_served = 0u64;
    for h in handles {
        total_served += h.join().expect("no panics, no deadlock");
    }

    let unique = VIDEOS.len() as u64 * GOPS;
    assert_eq!(total_served, THREADS as u64 * unique);
    assert_eq!(
        decodes.load(Ordering::Relaxed),
        unique,
        "every GOP must decode exactly once process-wide"
    );
    assert_eq!(cache.misses(), unique);
    assert_eq!(cache.hits(), THREADS as u64 * unique - unique);
}

#[test]
fn a_panicking_decode_does_not_wedge_its_gop() {
    let cache = Arc::new(GopCache::new(1_000));
    let c = Arc::clone(&cache);
    let first = std::thread::spawn(move || {
        c.get_or_insert_with::<std::convert::Infallible>("a", 0, || panic!("decoder blew up"))
    });
    assert!(first.join().is_err(), "the first decode panics");

    // A reader that blocks forever on the abandoned key would hang the
    // suite; run it aside and give up after a generous timeout instead.
    let (tx, rx) = std::sync::mpsc::channel();
    let c = Arc::clone(&cache);
    let second = std::thread::spawn(move || {
        let served = c.get_or_insert_with::<std::convert::Infallible>("a", 0, || Ok(decode(0, 0)));
        let _ = tx.send(served);
    });
    let (frames, was_hit) = rx
        .recv_timeout(std::time::Duration::from_secs(30))
        .expect("a panicked decode must not leave its GOP in flight")
        .expect("decode is infallible");
    second.join().expect("the second reader returns");
    assert!(!was_hit, "the retry decodes afresh");
    assert_eq!(frames.len(), FRAMES_PER_GOP);
    assert_eq!(marker::read(&frames[0]), Some(0));
}
