//! The timing wrapper must not change what the engine decides: at tiny
//! scale, ticks run through `TimedBackend` (part preloaded, part
//! synthesized on demand, timers on) produce a transcript
//! byte-identical to ticks run through a plain `WorldBackend`.

use blameit::{render_tick_transcript, BlameItEngine, WorldBackend};
use blameit_bench::Scale;
use blameit_perfbench::timed::{preload, TimedBackend};
use blameit_perfbench::{build_world, engine_config};
use blameit_simnet::{SimTime, TimeRange};

#[test]
fn timed_backend_transcript_matches_world_backend() {
    let world = build_world(Scale::Tiny, 2, 7);
    let warm = TimeRange::days(1);
    let eval = TimeRange::new(SimTime::from_days(1), SimTime::from_hours(30));
    let run = |timed: bool| {
        let mut engine = BlameItEngine::new(engine_config(&world, 2));
        if timed {
            // Preload every other evaluation bucket; the rest are
            // synthesized through the fallback path.
            let pre = preload(&world, 2, eval.buckets().step_by(2));
            let mut backend = TimedBackend::new(&world, 2, pre, true);
            engine.warmup(&backend, warm, 2);
            let outs = engine.run(&mut backend, eval);
            let t = backend.timers().read();
            assert!(t.served_quartets > 0 && t.route_info.as_nanos() > 0);
            outs
        } else {
            let mut backend = WorldBackend::with_parallelism(&world, 2);
            engine.warmup(&backend, warm, 2);
            engine.run(&mut backend, eval)
        }
    };
    let plain = run(false);
    let timed = run(true);
    assert_eq!(plain.len(), 24);
    assert_eq!(
        render_tick_transcript(&plain),
        render_tick_transcript(&timed),
        "the timing wrapper changed the engine's verdicts"
    );
}
