//! Schedule exploration end-to-end: the explorer must *find* planted
//! concurrency bugs (a real data race, a dropped-ACK protocol bug) with a
//! replayable seed, and must pass clean workloads across the whole seed
//! budget without false positives.
//!
//! The failing-seed assertions re-run the closure with the reported seed and
//! require the violation to reproduce — the property that makes the
//! `DDR_SCHED_SEED=<seed>` replay line in the report trustworthy.

use ddrcheck::explore::{default_seed_budget, explore, render_explore_report};
use minimpi::{Comm, Datatype, Error, FaultPlan, Universe};
use std::time::Duration;

/// A planted race, driven through the public access-annotation API: both
/// ranks declare a write to the same shared buffer with no message between
/// them, so the two writes are causally unordered on *every* schedule and
/// the checker must convict whichever rank annotates second.
#[test]
fn explorer_finds_planted_shared_buffer_race() {
    let buf: &'static [u8] = Box::leak(vec![0u8; 64].into_boxed_slice());
    let run = |seed: u64| {
        let out = Universe::builder()
            .check(true)
            .sched_seed(seed)
            .run(2, move |comm| comm.check_write(buf).map_err(|e| e.to_string()));
        out.into_iter().collect::<Result<Vec<_>, _>>().map(|_| ())
    };
    let report = explore(default_seed_budget(), run);
    let failure = report.failure.clone().expect("the unsynchronized writes must be convicted");
    assert!(failure.message.contains("data race"), "got: {}", failure.message);
    // The printed seed must replay to the same violation.
    assert!(run(failure.seed).is_err(), "seed {} did not replay the race", failure.seed);
}

/// The fixed variant of the same program: a message from the first writer to
/// the second orders the two accesses (the clock piggybacked on the envelope
/// joins into the receiver), so every explored schedule must run clean — the
/// checker tracks causality, not wall-clock luck.
#[test]
fn message_ordered_accesses_stay_clean_across_schedules() {
    let buf: &'static [u8] = Box::leak(vec![0u8; 64].into_boxed_slice());
    let report = explore(default_seed_budget(), |seed| {
        let out = Universe::builder().check(true).sched_seed(seed).run(2, move |comm| {
            if comm.rank() == 0 {
                comm.check_write(buf)?;
                comm.send_bytes(1, 9, &[1])?;
            } else {
                comm.recv_bytes(0, 9)?;
                comm.check_write(buf)?;
            }
            Ok::<_, Error>(())
        });
        out.into_iter().collect::<Result<Vec<_>, _>>().map(|_| ()).map_err(|e| e.to_string())
    });
    assert!(report.passed(), "{}", render_explore_report("ordered accesses", &report));
}

/// A dropped-verdict-ACK protocol bug, modelled on the alltoallw verdict
/// phase: rank 1 collects one fragment each from ranks 0 and 2 with
/// any-source receives and must ACK rank 0, but the buggy version only ACKs
/// when rank 0's fragment happens to be processed *first*. Which fragment an
/// any-source receive takes first is exactly what the seeded scheduler
/// rotates, so the sweep must drive the protocol into the forgotten-ACK
/// order and catch rank 0 timing out.
fn verdict_ack_protocol(comm: &Comm, buggy: bool) -> Result<(), Error> {
    const FRAG: u32 = 7;
    const ACK: u32 = 8;
    // Sync the ranks, then give both fragments time to land in rank 1's
    // mailbox before it starts taking: the schedule decision under test is
    // the *take order* of two ready messages, not raw thread-start skew.
    comm.barrier()?;
    match comm.rank() {
        0 => {
            comm.send_bytes(1, FRAG, &[0xA0; 16])?;
            comm.set_timeout(Duration::from_secs(2));
            comm.recv_bytes(1, ACK).map(|_| ())
        }
        2 => comm.send_bytes(1, FRAG, &[0xC2; 16]),
        _ => {
            std::thread::sleep(Duration::from_millis(2));
            let (first, _) = comm.recv_bytes_any(FRAG)?;
            let (_second, _) = comm.recv_bytes_any(FRAG)?;
            // Bug: the ACK is only issued from the first-fragment handler;
            // when rank 2's fragment is taken first, rank 0's goes
            // unacknowledged. The fix ACKs regardless of processing order.
            if first.src == 0 || !buggy {
                comm.send_bytes(0, ACK, &[1])?;
            }
            Ok(())
        }
    }
}

fn run_verdict_protocol(seed: u64, buggy: bool) -> Result<(), String> {
    let out = Universe::builder()
        .check(true)
        .sched_seed(seed)
        .run(3, move |comm| verdict_ack_protocol(comm, buggy));
    out.into_iter().collect::<Result<Vec<_>, _>>().map(|_| ()).map_err(|e| e.to_string())
}

#[test]
fn explorer_finds_dropped_verdict_ack() {
    let report = explore(default_seed_budget(), |seed| run_verdict_protocol(seed, true));
    let failure = report
        .failure
        .clone()
        .expect("some schedule must take rank 2's fragment first and expose the dropped ACK");
    // Rank 0 either times out waiting for the ACK or sees rank 1 depart.
    assert!(
        failure.message.contains("timed out") || failure.message.contains("dead"),
        "got: {}",
        failure.message
    );
    // The take order is a pure function of the seed, so the replay must
    // reproduce the dropped ACK — this is the debugging workflow the report's
    // DDR_SCHED_SEED line promises.
    assert!(
        run_verdict_protocol(failure.seed, true).is_err(),
        "seed {} did not replay the dropped ACK",
        failure.seed
    );
}

#[test]
fn fixed_verdict_ack_is_clean_across_schedules() {
    let report = explore(default_seed_budget(), |seed| run_verdict_protocol(seed, false));
    assert!(report.passed(), "{}", render_explore_report("fixed verdict ACK", &report));
    assert!(report.distinct_schedules >= 2, "the sweep should reach both take orders");
}

/// Bidirectional 2-rank alltoallw shipping `len` seeded bytes each way.
fn exchange(comm: &Comm, len: usize) -> minimpi::Result<Vec<u8>> {
    let me = comm.rank();
    let other = 1 - me;
    let send: Vec<u8> = (0..len).map(|i| (me as u8) ^ (i as u8).wrapping_mul(31)).collect();
    let mut recv = vec![0u8; len];
    let contig = Datatype::Contiguous { len_bytes: len, offset: 0 };
    let mut send_types = [Datatype::Empty, Datatype::Empty];
    let mut recv_types = [Datatype::Empty, Datatype::Empty];
    send_types[other] = contig;
    recv_types[other] = contig;
    comm.alltoallw(&send, &send_types, &mut recv, &recv_types)?;
    Ok(recv)
}

/// The full redistribution path — zero-copy loans, checking, clocks on every
/// fragment — must survive the whole seed sweep without a false race,
/// deadlock, leak, or type mismatch. 4 ranks, all-pairs exchange.
#[test]
fn alltoallw_under_check_is_clean_across_schedules() {
    let report = explore(default_seed_budget(), |seed| {
        let n = 4usize;
        let len = 512usize;
        let out = Universe::builder()
            .check(true)
            .zerocopy(true)
            .zerocopy_threshold(0)
            .sched_seed(seed)
            .timeout(Duration::from_secs(20))
            .run(n, move |comm| {
                let me = comm.rank();
                let send: Vec<u8> = (0..n * len).map(|i| (me as u8) ^ (i as u8)).collect();
                let mut recv = vec![0u8; n * len];
                let seg = |r: usize| Datatype::Contiguous { len_bytes: len, offset: r * len };
                let send_types: Vec<Datatype> = (0..n).map(seg).collect();
                let recv_types: Vec<Datatype> = (0..n).map(seg).collect();
                let mut mine = send.clone();
                comm.alltoallw(&send, &send_types, &mut recv, &recv_types)?;
                // Self-segment must round-trip; peers' segments must carry
                // their rank stamp.
                mine.clear();
                for (r, chunk) in recv.chunks(len).enumerate() {
                    for (i, b) in chunk.iter().enumerate() {
                        let expect = (r as u8) ^ ((r * len + i) as u8);
                        if *b != expect {
                            return Err(Error::Internal {
                                detail: format!("rank {me}: bad byte from rank {r} at {i}"),
                            });
                        }
                    }
                }
                Ok::<_, Error>(())
            });
        out.into_iter().collect::<Result<Vec<_>, _>>().map(|_| ()).map_err(|e| e.to_string())
    });
    assert!(report.passed(), "{}", render_explore_report("alltoallw", &report));
}

/// The pipelining bug class the nonblocking API makes possible: a sender
/// posts `ialltoallw` and reuses the posted buffer for the "next frame"
/// before waiting on the request. The zero-copy loan minted at post time is
/// still live, nothing orders the write against the receiver's copy, and the
/// happens-before checker must convict — with a seed that replays.
#[test]
fn explorer_finds_reuse_buffer_before_wait_race() {
    let len = 2048usize;
    let buf: &'static [u8] = Box::leak(vec![0x5Au8; len].into_boxed_slice());
    let run = move |seed: u64| {
        let out = Universe::builder()
            .check(true)
            .zerocopy(true)
            .zerocopy_threshold(0)
            .sched_seed(seed)
            .timeout(Duration::from_secs(20))
            .run(2, move |comm| {
                let other = 1 - comm.rank();
                let contig = Datatype::Contiguous { len_bytes: len, offset: 0 };
                let mut send_types = [Datatype::Empty, Datatype::Empty];
                let mut recv_types = [Datatype::Empty, Datatype::Empty];
                send_types[other] = contig;
                recv_types[other] = contig;
                let mut recv = vec![0u8; len];
                if comm.rank() == 0 {
                    let req = comm.ialltoallw(buf, &send_types, &recv_types)?;
                    // Planted bug: the posted send buffer is recycled for the
                    // next frame while the request is still in flight. The
                    // fix is to `wait` (or `test` to completion) first.
                    comm.check_write(buf)?;
                    req.wait(&mut recv)?;
                } else {
                    // The peer's claim may convict the same race from the
                    // other side, and once rank 0 is convicted it departs
                    // mid-exchange — both are acceptable here; the planted
                    // bug is on rank 0.
                    let send = vec![0xC3u8; len];
                    if let Err(Error::DataRace(_)) =
                        comm.alltoallw(&send, &send_types, &mut recv, &recv_types)
                    {
                        return Ok(());
                    }
                }
                Ok::<_, Error>(())
            });
        out.into_iter().next().unwrap().map(|_| ()).map_err(|e| e.to_string())
    };
    let report = explore(default_seed_budget(), run);
    let failure = report.failure.clone().expect("reusing a posted buffer before wait must convict");
    assert!(failure.message.contains("data race"), "got: {}", failure.message);
    assert!(run(failure.seed).is_err(), "seed {} did not replay the race", failure.seed);
}

/// The full redistribution path end to end: a genuinely multi-round plan
/// (3 chunks per rank → 3 rounds) through the default `reorganize_with_stats`,
/// with zero-copy loans, collective fingerprints across consecutive
/// sequence numbers, and vector clocks all live. Every explored schedule
/// must deliver exact bytes and run clean.
#[test]
fn multi_round_reorganize_under_check_is_clean_across_schedules() {
    use ddr_core::{decompose, Block, DataKind, Descriptor, Strategy, ValidationPolicy};
    fn cell_value(c: [usize; 3]) -> u64 {
        (c[0] as u64) | ((c[1] as u64) << 20) | ((c[2] as u64) << 40)
    }
    let report = explore(default_seed_budget(), |seed| {
        let n = 3usize;
        let out = Universe::builder()
            .check(true)
            .zerocopy(true)
            .zerocopy_threshold(0)
            .sched_seed(seed)
            .timeout(Duration::from_secs(20))
            .run(n, move |comm| {
                let r = comm.rank();
                let domain = Block::d2([0, 0], [12, 12]).unwrap();
                // Rank r owns column slabs r, r+3, r+6 of nine; needs a row
                // slab — every round has cross-rank traffic.
                let owned: Vec<Block> =
                    (0..3).map(|k| decompose::slab(&domain, 1, 9, r + 3 * k).unwrap()).collect();
                let need = decompose::slab(&domain, 0, n, r).unwrap();
                let desc = Descriptor::for_type::<u64>(n, DataKind::D2).unwrap();
                let plan = desc
                    .setup_data_mapping_with(comm, &owned, need, ValidationPolicy::Strict)
                    .map_err(|e| e.to_string())?;
                let data: Vec<Vec<u64>> =
                    owned.iter().map(|b| b.coords().map(cell_value).collect()).collect();
                let refs: Vec<&[u64]> = data.iter().map(|v| v.as_slice()).collect();
                let mut got = vec![u64::MAX; need.count() as usize];
                let (report, _) = plan
                    .reorganize_with_stats(comm, &refs, &mut got, Strategy::Alltoallw)
                    .map_err(|e| e.to_string())?;
                if !report.is_complete() {
                    return Err(format!("rank {r}: incomplete exchange on seed {seed}"));
                }
                let want: Vec<u64> = need.coords().map(cell_value).collect();
                if got != want {
                    return Err(format!("rank {r}: redistributed bytes diverge on seed {seed}"));
                }
                Ok(())
            });
        out.into_iter().collect::<Result<Vec<_>, _>>().map(|_| ())
    });
    // No distinct-schedule floor here: the exchange's receives are all
    // source-ordered, so the delivery fingerprint is schedule-invariant —
    // the sweep varies *timing* rather than take order.
    assert!(report.passed(), "{}", render_explore_report("multi-round reorganize", &report));
}

/// Corruption recovery (detect → NACK → retransmit) with checking *and*
/// schedule perturbation stacked on top: the retransmit verdict phase has
/// its own polls and control messages, all perturbed, and must still settle
/// byte-identical on every explored schedule.
#[test]
fn corrupt_retransmit_recovery_is_clean_across_schedules() {
    let report = explore(default_seed_budget(), |seed| {
        let len = 1024usize;
        let out = Universe::builder()
            .check(true)
            .sched_seed(seed)
            .timeout(Duration::from_secs(20))
            .fault_plan(FaultPlan::new(7).corrupt_message(0, 1, None, 0))
            .run(2, move |comm| {
                let got = exchange(comm, len)?;
                let other = 1 - comm.rank();
                let want: Vec<u8> =
                    (0..len).map(|i| (other as u8) ^ (i as u8).wrapping_mul(31)).collect();
                if got != want {
                    return Err(Error::Internal {
                        detail: format!("rank {}: recovered bytes differ", comm.rank()),
                    });
                }
                Ok::<_, Error>(())
            });
        out.into_iter().collect::<Result<Vec<_>, _>>().map(|_| ()).map_err(|e| e.to_string())
    });
    assert!(report.passed(), "{}", render_explore_report("retransmit recovery", &report));
}

/// The credit handshake under schedule perturbation: a ring of sends
/// through 1-message windows, each deposit parking and resuming through the
/// gate's sched point, must deliver exact bytes on every explored schedule
/// with the checker armed — no false deadlock convictions and no watchdog
/// false positives from credit-parked senders, whatever order the scheduler
/// wakes them in.
#[test]
fn credit_handshake_is_clean_across_schedules() {
    let report = explore(default_seed_budget(), |seed| {
        let n = 3usize;
        let out = Universe::builder()
            .check(true)
            .flow_control(1, 256)
            .sched_seed(seed)
            .timeout(Duration::from_secs(10))
            .run(n, move |comm| {
                let me = comm.rank();
                let next = (me + 1) % n;
                let prev = (me + n - 1) % n;
                // send/recv interleaved: each recv hands the upstream peer
                // its credit back, so the ring always has a granter — but
                // the second send of every iteration races the downstream
                // drain and parks on losing schedules.
                for i in 0..4u8 {
                    comm.send_bytes(next, 5, &[(me as u8) ^ i; 96])?;
                    let m = comm.recv_bytes(prev, 5)?;
                    if m != vec![(prev as u8) ^ i; 96] {
                        return Err(Error::Internal {
                            detail: format!("rank {me}: bad credit-gated delivery {i}"),
                        });
                    }
                }
                Ok::<_, Error>(())
            });
        out.into_iter().collect::<Result<Vec<_>, _>>().map(|_| ()).map_err(|e| e.to_string())
    });
    assert!(report.passed(), "{}", render_explore_report("credit handshake", &report));
}

/// A planted flow-control protocol bug: both ranks post two sends into
/// 1-message windows before either receives, so both park on the credit
/// gate with nobody left to grant credits. The sweep must convict this as a
/// *structured* failure — a credit-wait timeout or a deadlock report, never
/// a hang — and the reported seed must replay it.
#[test]
fn explorer_convicts_head_of_line_credit_deadlock() {
    let run = |seed: u64| {
        let out = Universe::builder()
            .check(true)
            .flow_control(1, 1 << 20)
            .sched_seed(seed)
            .timeout(Duration::from_millis(300))
            .run(2, move |comm| {
                let other = 1 - comm.rank();
                comm.send_bytes(other, 3, &[1u8; 32])?;
                // Bug under test: this send needs a credit only the peer's
                // recv can grant, and the peer is parked the same way.
                comm.send_bytes(other, 3, &[2u8; 32])?;
                comm.recv_bytes(other, 3)?;
                comm.recv_bytes(other, 3)?;
                Ok::<_, Error>(())
            });
        // Convict the root failure. Whichever rank's credit wait gives up
        // first dies, and its peer then fails fast with `PeerDead`; that
        // follow-on error can sit at a lower rank than the cause.
        let errors: Vec<Error> = out.into_iter().filter_map(Result::err).collect();
        match errors.iter().find(|e| !matches!(e, Error::PeerDead { .. })).or(errors.first()) {
            Some(e) => Err(e.to_string()),
            None => Ok(()),
        }
    };
    let report = explore(default_seed_budget(), run);
    let failure =
        report.failure.clone().expect("send-send-recv through 1-credit windows must deadlock");
    assert!(
        failure.message.contains("timed out") || failure.message.contains("deadlock"),
        "the conviction must be structured, got: {}",
        failure.message
    );
    assert!(run(failure.seed).is_err(), "seed {} did not replay the credit deadlock", failure.seed);
}
