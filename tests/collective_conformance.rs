//! Differential conformance suite for the shared collective core: the
//! same `megatron-collective` step programs run through **every group
//! transport** (`megatron_dist::comm`, one OS thread per rank) and once
//! through the serial `reference_run` interpreter — and must agree **bit
//! for bit** at awkward group sizes and non-divisible buffer lengths.
//! Measured transport egress must simultaneously equal the program's
//! `sent_elems` and, at divisible lengths, the §3 ring volume
//! (`core::parallel::analysis::ring_all_reduce_bytes`).
//!
//! The transport axis ([`Mode`]) covers:
//! - **Mailbox** — the in-process per-edge mailboxes;
//! - **Socket** — real Unix-domain sockets, one listener per rank, the
//!   same process-mode wiring `repro launch` uses (length-prefixed
//!   frames, dials retried until a peer's listener is up, barriers riding
//!   the wire);
//! - **Tcp** — the same wiring over loopback TCP, exercised by the
//!   large-message test (ring chunks far beyond the kernel socket buffer).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use megatron_repro::collective::{
    self as coll, chunk_of, reference_run, ReduceOp, SocketChannel, SocketNode, WireAddr, LEND_MIN,
};
use megatron_repro::core::parallel::analysis::ring_all_reduce_bytes;
use megatron_repro::dist::{
    CommVolume, Group, GroupMember, TransportConfig, WireKind, BYTES_F32, DEFAULT_COMM_TIMEOUT,
};

/// Per-rank bytes a ring all-reduce of `n` f32 elements sends over `g`
/// ranks, by the §3 ring volume.
fn ring_bytes(g: usize, n: usize) -> f64 {
    ring_all_reduce_bytes(n as f64 * BYTES_F32, g as u64)
}

/// Odd group sizes exercised everywhere below.
const SIZES: [usize; 3] = [3, 5, 7];

/// Which wire the group under test runs over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Mailbox,
    Socket,
    Tcp,
}

const MODES: [Mode; 2] = [Mode::Mailbox, Mode::Socket];

/// Deterministic per-rank input that differs across ranks and positions.
fn seeded(rank: usize, n: usize) -> Vec<f32> {
    (0..n)
        .map(|i| ((rank * 31 + i * 7) % 97) as f32 * 0.125 - 3.0)
        .collect()
}

/// Run `f` on every member of a fresh `g`-rank group over `mode`'s wire,
/// one OS thread per rank, and return the per-rank results in rank order.
fn with_group<R: Send>(mode: Mode, g: usize, f: impl Fn(GroupMember) -> R + Sync) -> Vec<R> {
    match mode {
        Mode::Mailbox => {
            let group = Group::new(g);
            run_threads(g, &f, move |_| Arc::clone(&group))
        }
        Mode::Socket | Mode::Tcp => {
            // One listener + one single-member group per rank: exactly the
            // wiring of a real N-process job, minus the fork/exec.
            static WORLD: AtomicUsize = AtomicUsize::new(0);
            let dir = std::env::temp_dir().join(format!(
                "megatron-conformance-{}-{}",
                std::process::id(),
                WORLD.fetch_add(1, Ordering::Relaxed)
            ));
            std::fs::create_dir_all(&dir).unwrap();
            let nodes: Vec<Arc<SocketNode>> = (0..g)
                .map(|r| {
                    let addr = match mode {
                        Mode::Tcp => WireAddr::Tcp("127.0.0.1:0".parse().unwrap()),
                        _ => WireAddr::Uds(dir.join(format!("r{r}.sock"))),
                    };
                    Arc::new(SocketNode::bind(&addr).unwrap())
                })
                .collect();
            let addrs: Vec<Option<WireAddr>> =
                nodes.iter().map(|n| Some(n.addr().clone())).collect();
            let cfg = TransportConfig {
                wire: if mode == Mode::Tcp {
                    WireKind::Tcp
                } else {
                    WireKind::Uds
                },
            };
            let out = run_threads(g, &f, move |r| {
                let chan = SocketChannel::new(Arc::clone(&nodes[r]), 7000, r, addrs.clone());
                Group::with_socket(g, DEFAULT_COMM_TIMEOUT, cfg, chan)
            });
            let _ = std::fs::remove_dir_all(&dir);
            out
        }
    }
}

fn run_threads<R: Send>(
    g: usize,
    f: &(impl Fn(GroupMember) -> R + Sync),
    group_for: impl Fn(usize) -> Arc<Group> + Sync,
) -> Vec<R> {
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..g)
            .map(|r| {
                let m = group_for(r).member(r);
                s.spawn(move || f(m))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rank thread panicked"))
            .collect()
    })
}

#[test]
fn all_reduce_sum_matches_reference_bitwise() {
    for mode in MODES {
        for g in SIZES {
            // Lengths that do not divide by g (and one shorter than g).
            for n in [2usize, 10, 17, 23] {
                if n.is_multiple_of(g) {
                    continue; // divisible lengths have their own test below
                }
                let prog = coll::ring_all_reduce(g, n, ReduceOp::Sum);
                let mut reference: Vec<Vec<f32>> = (0..g).map(|r| seeded(r, n)).collect();
                reference_run(&prog, &mut reference);

                let real: Vec<(Vec<f32>, CommVolume)> = with_group(mode, g, |m| {
                    let mut buf = seeded(m.rank(), n);
                    m.try_all_reduce_sum(&mut buf).unwrap();
                    (buf, m.comm_volume())
                });
                for (rank, (buf, vol)) in real.iter().enumerate() {
                    assert_eq!(
                        buf, &reference[rank],
                        "{mode:?} g={g} n={n} rank {rank}: transport diverged from reference"
                    );
                    assert_eq!(
                        vol.all_reduce_bytes,
                        prog.sent_elems(rank) as f64 * BYTES_F32,
                        "{mode:?} g={g} n={n} rank {rank}: measured bytes != program egress"
                    );
                }
            }
        }
    }
}

#[test]
fn all_reduce_max_matches_reference_bitwise() {
    for mode in MODES {
        for g in SIZES {
            let n = 4 * g + 1; // non-divisible
            let prog = coll::ring_all_reduce(g, n, ReduceOp::Max);
            let mut reference: Vec<Vec<f32>> = (0..g).map(|r| seeded(r, n)).collect();
            reference_run(&prog, &mut reference);

            let real: Vec<Vec<f32>> = with_group(mode, g, |m| {
                let mut buf = seeded(m.rank(), n);
                m.try_all_reduce_max(&mut buf).unwrap();
                buf
            });
            for (rank, buf) in real.iter().enumerate() {
                assert_eq!(buf, &reference[rank], "{mode:?} g={g} rank {rank}");
            }
        }
    }
}

/// Rank `r`'s starting buffer for an all-gather of `n`: its own chunk
/// seeded, zeros elsewhere.
fn own_chunk_only(r: usize, g: usize, n: usize) -> Vec<f32> {
    let mut buf = vec![0.0f32; n];
    let c = chunk_of(n, g, r);
    buf[c.lo..c.hi].copy_from_slice(&seeded(r, c.len()));
    buf
}

#[test]
fn all_gather_matches_reference_bitwise() {
    for mode in MODES {
        for g in SIZES {
            // Divisible lengths (each rank contributes `n / g`), a
            // non-divisible one and one shorter than the group.
            for n in [g, 5 * g, 9 * g, 4 * g + 1, 2] {
                let prog = coll::ring_all_gather(g, n);
                let mut reference: Vec<Vec<f32>> =
                    (0..g).map(|r| own_chunk_only(r, g, n)).collect();
                reference_run(&prog, &mut reference);

                let real: Vec<(Vec<f32>, CommVolume)> = with_group(mode, g, |m| {
                    let mut buf = own_chunk_only(m.rank(), g, n);
                    m.try_all_gather(&mut [&mut buf]).unwrap();
                    (buf, m.comm_volume())
                });
                for (rank, (buf, vol)) in real.iter().enumerate() {
                    assert_eq!(buf, &reference[rank], "{mode:?} g={g} n={n} rank {rank}");
                    assert_eq!(
                        vol.all_gather_bytes,
                        prog.sent_elems(rank) as f64 * BYTES_F32
                    );
                    if n.is_multiple_of(g) {
                        // g−1 rounds of one `n/g`-sized chunk each: the
                        // all-gather half of the ring volume.
                        assert_eq!(vol.all_gather_bytes, ring_bytes(g, n) / 2.0);
                    }
                }
            }
        }
    }
}

#[test]
fn reduce_scatter_matches_reference_bitwise() {
    // Every rank's whole buffer — its fully reduced own chunk and the
    // partial sums it forwarded — must match the reference.
    for mode in MODES {
        for g in SIZES {
            for n in [6 * g, 6 * g + 1] {
                let prog = coll::ring_reduce_scatter(g, n, ReduceOp::Sum);
                let mut reference: Vec<Vec<f32>> = (0..g).map(|r| seeded(r, n)).collect();
                reference_run(&prog, &mut reference);

                let real: Vec<(Vec<f32>, CommVolume)> = with_group(mode, g, |m| {
                    let mut buf = seeded(m.rank(), n);
                    m.try_reduce_scatter_sum(&mut [&mut buf]).unwrap();
                    (buf, m.comm_volume())
                });
                for (rank, (buf, vol)) in real.iter().enumerate() {
                    assert_eq!(
                        buf, &reference[rank],
                        "{mode:?} g={g} n={n} rank {rank}: reduce-scatter diverged"
                    );
                    assert_eq!(
                        vol.reduce_scatter_bytes,
                        prog.sent_elems(rank) as f64 * BYTES_F32
                    );
                    if n.is_multiple_of(g) {
                        assert_eq!(vol.reduce_scatter_bytes, ring_bytes(g, n) / 2.0);
                    }
                }
            }
        }
    }
}

#[test]
fn segmented_data_parallel_step_matches_reference_bitwise() {
    // The trainer's data-parallel step on every wire: one segmented
    // reduce-scatter, each rank scaling its own chunk of every segment by
    // 1/g, one segmented all-gather. Segments include empty ones, ones
    // shorter and just longer than the group, and one above 64 KiB.
    let bits = |v: &[Vec<f32>]| -> Vec<Vec<u32>> {
        v.iter()
            .map(|s| s.iter().map(|x| x.to_bits()).collect())
            .collect()
    };
    // The last pass adds a segment of `g · LEND_MIN` floats, so every
    // message is lent: the mailbox queues the segments' own slices.
    let passes = [
        (Mode::Mailbox, false),
        (Mode::Socket, false),
        (Mode::Mailbox, true),
    ];
    for (mode, lent) in passes {
        for g in [2, 3, 5, 7] {
            let mut lens = vec![0, 1, g - 1, g + 1, 3 * g + 2, 16_411];
            if lent {
                lens.push(g * LEND_MIN);
            }
            let start = |r: usize| -> Vec<Vec<f32>> {
                lens.iter()
                    .enumerate()
                    .map(|(k, &n)| seeded(r + 11 * k, n))
                    .collect()
            };
            let inv = 1.0 / g as f32;
            // Reference: the per-segment programs, phase by phase.
            let mut reference: Vec<Vec<Vec<f32>>> = (0..g).map(start).collect();
            let mut egress = vec![0usize; g];
            for (k, &n) in lens.iter().enumerate() {
                let rs = coll::ring_reduce_scatter(g, n, ReduceOp::Sum);
                let ag = coll::ring_all_gather(g, n);
                let mut bufs: Vec<Vec<f32>> = reference.iter().map(|b| b[k].clone()).collect();
                reference_run(&rs, &mut bufs);
                for (r, buf) in bufs.iter_mut().enumerate() {
                    let c = chunk_of(n, g, r);
                    buf[c.lo..c.hi].iter_mut().for_each(|x| *x *= inv);
                    egress[r] += rs.sent_elems(r) + ag.sent_elems(r);
                }
                reference_run(&ag, &mut bufs);
                for (r, buf) in bufs.into_iter().enumerate() {
                    reference[r][k] = buf;
                }
            }

            let real = with_group(mode, g, |m| {
                let rank = m.rank();
                let mut segs = start(rank);
                let mut views: Vec<&mut [f32]> = segs.iter_mut().map(|s| &mut s[..]).collect();
                m.try_reduce_scatter_sum(&mut views).unwrap();
                for view in views.iter_mut() {
                    let c = chunk_of(view.len(), g, rank);
                    view[c.lo..c.hi].iter_mut().for_each(|x| *x *= inv);
                }
                m.try_all_gather(&mut views).unwrap();
                let step = m.comm_volume();
                // The same segments through the per-segment mean all-reduce.
                let mut means = start(rank);
                for seg in &mut means {
                    m.try_all_reduce_mean(seg).unwrap();
                }
                (segs, means, step)
            });
            for (rank, (segs, means, vol)) in real.iter().enumerate() {
                let at = format!("{mode:?} (lent: {lent}) g={g} rank {rank}");
                assert_eq!(bits(segs), bits(&reference[rank]), "{at}: vs reference");
                assert_eq!(bits(segs), bits(means), "{at}: vs all-reduce mean");
                assert_eq!(
                    vol.reduce_scatter_bytes + vol.all_gather_bytes,
                    egress[rank] as f64 * BYTES_F32,
                    "{at}: egress"
                );
                assert_eq!(vol.ops, 2, "{at}: one collective per phase");
            }
        }
    }
}

#[test]
fn broadcast_matches_reference_bitwise() {
    for mode in MODES {
        for g in SIZES {
            for root in [0, g - 1] {
                let n = 3 * g + 2; // non-divisible
                let prog = coll::ring_broadcast(g, n, root);
                let mut reference: Vec<Vec<f32>> = (0..g).map(|r| seeded(r, n)).collect();
                reference_run(&prog, &mut reference);

                let real: Vec<(Vec<f32>, CommVolume)> = with_group(mode, g, |m| {
                    let mut buf = seeded(m.rank(), n);
                    m.try_broadcast(&mut buf, root).unwrap();
                    (buf, m.comm_volume())
                });
                for (rank, (buf, vol)) in real.iter().enumerate() {
                    assert_eq!(
                        buf,
                        &seeded(root, n),
                        "{mode:?} g={g} root={root} rank {rank}"
                    );
                    assert_eq!(buf, &reference[rank]);
                    assert_eq!(
                        vol.broadcast_bytes,
                        prog.sent_elems(rank) as f64 * BYTES_F32
                    );
                }
                // The pipelined ring is per-rank asymmetric: the root (and
                // every middle position) forwards the whole buffer; the last
                // ring position sends nothing.
                let tail = (root + g - 1) % g;
                assert_eq!(real[root].1.broadcast_bytes, n as f64 * BYTES_F32);
                assert_eq!(real[tail].1.broadcast_bytes, 0.0);
            }
        }
    }
}

#[test]
fn hierarchical_all_reduce_matches_reference_bitwise() {
    // Composite size so `local` is a proper divisor: 6 ranks as 3 nodes of
    // 2 and 2 nodes of 3, at a non-divisible length.
    let g = 6;
    for mode in MODES {
        for local in [2, 3] {
            let n = 25;
            let prog = coll::hierarchical_all_reduce(g, n, local, ReduceOp::Sum);
            let mut reference: Vec<Vec<f32>> = (0..g).map(|r| seeded(r, n)).collect();
            reference_run(&prog, &mut reference);

            let real: Vec<(Vec<f32>, CommVolume)> = with_group(mode, g, |m| {
                let mut buf = seeded(m.rank(), n);
                m.try_hierarchical_all_reduce_sum(&mut buf, local).unwrap();
                (buf, m.comm_volume())
            });
            for (rank, (buf, vol)) in real.iter().enumerate() {
                assert_eq!(buf, &reference[rank], "{mode:?} local={local} rank {rank}");
                assert_eq!(
                    vol.all_reduce_bytes,
                    prog.sent_elems(rank) as f64 * BYTES_F32
                );
            }
        }
    }
}

#[test]
fn divisible_lengths_match_closed_form_volumes() {
    // At divisible lengths the measured egress collapses to the familiar
    // 2(g−1)/g · n ring volume — the one the §3 analysis prices layouts
    // with.
    for mode in MODES {
        for g in SIZES {
            let n = 8 * g;
            let vols: Vec<CommVolume> = with_group(mode, g, |m| {
                let mut buf = seeded(m.rank(), n);
                m.try_all_reduce_sum(&mut buf).unwrap();
                m.comm_volume()
            });
            for vol in vols {
                assert_eq!(vol.all_reduce_bytes, ring_bytes(g, n), "{mode:?} g={g}");
            }
        }
    }
}

#[test]
fn size_two_all_reduce_is_exact_at_every_length() {
    // The g=2 identity the trainer's telemetry cross-checks rely on:
    // per-rank all-reduce egress is exactly n elements for any n, even
    // when n doesn't halve evenly.
    for mode in MODES {
        for n in [1, 3, 7, 97] {
            let vols: Vec<CommVolume> = with_group(mode, 2, |m| {
                let mut buf = seeded(m.rank(), n);
                m.try_all_reduce_sum(&mut buf).unwrap();
                m.comm_volume()
            });
            for vol in vols {
                assert_eq!(vol.all_reduce_bytes, n as f64 * BYTES_F32, "{mode:?} n={n}");
            }
        }
    }
}

/// Lengths of the two-member tests: empty, shorter than the two ring
/// chunks, odd, a tensor-parallel all-reduce of the (2,2,2) job, and one
/// past the mailbox's lending threshold.
const PAIR_LENS: [usize; 5] = [0, 1, 3, 8192, LEND_MIN + 1];

/// Rank `rank`'s input for the two-member tests: floats of both signs
/// over sixteen binades, so sums round, and a signed zero every eleventh
/// element (`+0.0` on rank 0, `−0.0` on rank 1).
fn mixed(rank: usize, n: usize) -> Vec<f32> {
    (0..n)
        .map(|i| {
            if i % 11 == 0 {
                return if rank == 0 { 0.0 } else { -0.0 };
            }
            let h = ((rank * n + i) as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let unit = (h >> 40) as f32 / (1u64 << 24) as f32;
            (unit - 0.5) * 2f32.powi((h >> 8) as i32 % 16 - 8)
        })
        .collect()
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn two_member_sum_is_one_exchange_with_the_two_round_ring_bits() {
    for mode in MODES {
        for n in PAIR_LENS {
            // The two-round ring the exchange replaces: a reduce-scatter,
            // then an all-gather, over the two halves of the buffer.
            let mut ring = coll::ring_reduce_scatter(2, n, ReduceOp::Sum);
            ring.rounds.extend(coll::ring_all_gather(2, n).rounds);
            let mut want: Vec<Vec<f32>> = (0..2).map(|r| mixed(r, n)).collect();
            reference_run(&ring, &mut want);
            assert_eq!(coll::ring_all_reduce(2, n, ReduceOp::Sum).round_count(), 1);

            let real: Vec<(Vec<f32>, CommVolume)> = with_group(mode, 2, |m| {
                let mut buf = mixed(m.rank(), n);
                m.try_all_reduce_sum(&mut buf).unwrap();
                (buf, m.comm_volume())
            });
            for (rank, (buf, vol)) in real.iter().enumerate() {
                let at = format!("{mode:?} n={n} rank {rank}");
                assert_eq!(bits(buf), bits(&want[rank]), "{at}: vs the two-round ring");
                assert_eq!(vol.all_reduce_bytes, n as f64 * BYTES_F32, "{at}: egress");
            }
        }
    }
}

#[test]
fn two_member_max_agrees_on_signed_zeros_and_nans() {
    // Element `i` by `i % 6`: +0 against −0, −0 against +0, a NaN on
    // either side of a number, a NaN on both (different payloads), and two
    // numbers.
    let nan = [f32::from_bits(0x7fc0_0001), f32::from_bits(0xffc0_0002)];
    let input = |rank: usize, n: usize| -> Vec<f32> {
        let numbers = mixed(rank, n);
        (0..n)
            .map(|i| match i % 6 {
                0 => [0.0, -0.0][rank],
                1 => [-0.0, 0.0][rank],
                2 if rank == 0 => f32::NAN,
                3 if rank == 1 => f32::NAN,
                4 => nan[rank],
                _ => numbers[i],
            })
            .collect()
    };
    for mode in MODES {
        for n in PAIR_LENS {
            let prog = coll::ring_all_reduce(2, n, ReduceOp::Max);
            let mut want: Vec<Vec<f32>> = (0..2).map(|r| input(r, n)).collect();
            reference_run(&prog, &mut want);
            let (x0, x1) = (input(0, n), input(1, n));
            for i in 0..n {
                let got = want[0][i];
                match i % 6 {
                    // Of two equal values, rank 0's.
                    0 | 1 => assert_eq!(got.to_bits(), x0[i].to_bits(), "element {i}"),
                    4 => assert!(got.is_nan(), "element {i}"),
                    _ => {
                        let larger = if x0[i].is_nan() || x0[i] < x1[i] {
                            x1[i]
                        } else {
                            x0[i]
                        };
                        assert_eq!(got.to_bits(), larger.to_bits(), "element {i}");
                    }
                }
            }

            let real: Vec<Vec<f32>> = with_group(mode, 2, |m| {
                let mut buf = input(m.rank(), n);
                m.try_all_reduce_max(&mut buf).unwrap();
                buf
            });
            assert_eq!(
                bits(&real[0]),
                bits(&real[1]),
                "{mode:?} n={n}: members differ"
            );
            assert_eq!(
                bits(&real[0]),
                bits(&want[0]),
                "{mode:?} n={n}: vs reference"
            );
        }
    }
}

#[test]
fn large_socket_all_reduce_matches_reference_bitwise() {
    // 2 M floats: every ring chunk (4 MiB at g = 2) is many times the
    // kernel socket buffer, so each rank's send cannot complete until its
    // neighbour — itself mid-send — reads. A transport whose send waits
    // for the receiver stalls both until the deadline.
    let n = 2_097_152;
    for mode in [Mode::Socket, Mode::Tcp] {
        for g in [2, 3] {
            let prog = coll::ring_all_reduce(g, n, ReduceOp::Sum);
            let mut reference: Vec<Vec<f32>> = (0..g).map(|r| seeded(r, n)).collect();
            reference_run(&prog, &mut reference);
            let real: Vec<bool> = with_group(mode, g, |m| {
                let mut buf = seeded(m.rank(), n);
                m.try_all_reduce_sum(&mut buf).unwrap();
                let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                bits(&buf) == bits(&reference[m.rank()])
            });
            assert!(
                real.iter().all(|&same| same),
                "{mode:?} g={g}: transport diverged from reference"
            );
        }
    }
}

/// Run `prog` on a mailbox group of `prog.ranks` through `run`, from
/// `start(rank)` on each rank, and compare every rank's buffer with
/// `reference_run` bit for bit.
fn mailbox_matches_reference(
    name: &str,
    prog: &coll::Program,
    start: impl Fn(usize) -> Vec<f32> + Sync,
    run: impl Fn(&GroupMember, &mut [f32]) + Sync,
) {
    let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let g = prog.ranks;
    let mut reference: Vec<Vec<f32>> = (0..g).map(&start).collect();
    reference_run(prog, &mut reference);
    let same: Vec<bool> = with_group(Mode::Mailbox, g, |m| {
        let mut buf = start(m.rank());
        run(&m, &mut buf);
        bits(&buf) == bits(&reference[m.rank()])
    });
    assert!(
        same.iter().all(|&s| s),
        "{name} g={g}: mailbox diverged from reference"
    );
}

#[test]
fn large_mailbox_collectives_match_reference_bitwise() {
    // Every chunk here holds at least `LEND_MIN` floats, so the mailbox
    // lends each round that may lend — all of a reduce-scatter, an
    // all-gather and a broadcast, the all-gather half of an all-reduce and
    // the last phase of a hierarchical one — and the receiver combines
    // straight from the sender's buffer.
    for g in SIZES {
        // Non-divisible, and the shortest (last) chunk is exactly LEND_MIN.
        let n = g * LEND_MIN + g - 1;
        assert_eq!(chunk_of(n, g, g - 1).len(), LEND_MIN);
        let seed = |r: usize| seeded(r, n);
        let prog = coll::ring_all_reduce(g, n, ReduceOp::Sum);
        mailbox_matches_reference("all-reduce sum", &prog, seed, |m, buf| {
            m.try_all_reduce_sum(buf).unwrap()
        });
        let prog = coll::ring_all_reduce(g, n, ReduceOp::Max);
        mailbox_matches_reference("all-reduce max", &prog, seed, |m, buf| {
            m.try_all_reduce_max(buf).unwrap()
        });
        let prog = coll::ring_reduce_scatter(g, n, ReduceOp::Sum);
        mailbox_matches_reference("reduce-scatter", &prog, seed, |m, buf| {
            m.try_reduce_scatter_sum(&mut [buf]).unwrap()
        });
        let prog = coll::ring_all_gather(g, n);
        let own = |r: usize| own_chunk_only(r, g, n);
        mailbox_matches_reference("all-gather", &prog, own, |m, buf| {
            m.try_all_gather(&mut [buf]).unwrap()
        });
        let prog = coll::ring_broadcast(g, n, g - 1);
        mailbox_matches_reference("broadcast", &prog, seed, |m, buf| {
            m.try_broadcast(buf, g - 1).unwrap()
        });
    }
    // Hierarchical needs a composite group: 6 ranks as 3 nodes of 2 and 2
    // nodes of 3, every sub-chunk at least LEND_MIN.
    let n = 6 * LEND_MIN + 5;
    for local in [2, 3] {
        let prog = coll::hierarchical_all_reduce(6, n, local, ReduceOp::Sum);
        mailbox_matches_reference(
            "hierarchical",
            &prog,
            |r| seeded(r, n),
            |m, buf| m.try_hierarchical_all_reduce_sum(buf, local).unwrap(),
        );
    }
}
