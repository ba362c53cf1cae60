//! Negative property tests for the trace front: start from a scenario the
//! front proves clean, inject one declaration/configuration drift, and
//! assert the drift is flagged with the expected TR rule ID. One test per
//! invariant family (ID propagation, event pairing, type soundness,
//! clock/sampling consistency).

use mscope_lint::model::ScenarioModel;
use mscope_lint::trace::{check_model, TraceFinding};
use mscope_monitors::MonitorKind;
use mscope_ntier::SystemConfig;
use mscope_sim::prop::{forall, Gen};
use mscope_sim::prop_ensure;
use mscope_transform::declare::{ParserKind, ParsingDeclaration};
use mscope_transform::{Pattern, Tok};

/// Rewrites every pattern token of a staged declaration through `f`
/// (XML-direct declarations have no tokens and pass through unchanged).
fn map_tokens(decl: &mut ParsingDeclaration, f: impl Fn(&Tok) -> Tok + Copy) {
    let map_pat = |p: &mut Pattern| *p = Pattern::new(p.tokens().iter().map(f).collect());
    if let ParserKind::Staged(spec) = &mut decl.parser {
        for p in spec.context.iter_mut().chain(spec.records.iter_mut()) {
            map_pat(p);
        }
        if let Some(b) = &mut spec.blocks {
            map_pat(&mut b.marker);
            for p in b.lines.iter_mut().flatten() {
                map_pat(p);
            }
        }
    }
}

/// Renames a capture, simulating a declaration that silently dropped a
/// column (the capture still consumes its token, but under a new name).
fn rename_capture(decl: &mut ParsingDeclaration, from: &str, to: &str) {
    map_tokens(decl, |t| match t {
        Tok::Cap(n) if n == from => Tok::cap(to),
        Tok::Wall(n) if n == from => Tok::wall(to),
        other => other.clone(),
    });
}

/// Index of the first-replica event monitor on a tier.
fn event_idx(model: &ScenarioModel, tier: usize) -> usize {
    model
        .monitors
        .iter()
        .position(|m| m.meta.kind == MonitorKind::Event && m.meta.node.tier.0 == tier)
        .expect("tier has an event monitor")
}

fn rules(findings: &[TraceFinding]) -> Vec<&'static str> {
    findings.iter().map(|f| f.rule).collect()
}

#[test]
fn dropping_an_id_column_is_flagged_as_tr001_or_tr002() {
    let presets = SystemConfig::presets();
    forall("id drift", 32, |g: &mut Gen| {
        let (name, cfg) = g.choose(&presets);
        let tier = g.usize(0..=cfg.tiers.len() - 1);
        let mut m = ScenarioModel::build(name, &cfg);
        let idx = event_idx(&m, tier);
        rename_capture(&mut m.monitors[idx].decl, "request_id", "request_id_lost");
        let got = rules(&check_model(&m));
        let want = if tier == 0 { "TR001" } else { "TR002" };
        prop_ensure!(
            got.contains(&want),
            "{name}: dropping request_id at tier {tier} should raise {want}, got {got:?}"
        );
        Ok(())
    });
}

#[test]
fn dropping_a_boundary_capture_is_flagged_as_tr003_and_tr004() {
    let presets = SystemConfig::presets();
    forall("window drift", 32, |g: &mut Gen| {
        let (name, cfg) = g.choose(&presets);
        let last = cfg.tiers.len() - 1;
        let tier = g.usize(0..=last);
        let col = g.choose(&["ds", "dr"]);
        let mut m = ScenarioModel::build(name, &cfg);
        let idx = event_idx(&m, tier);
        rename_capture(&mut m.monitors[idx].decl, col, "boundary_lost");
        let got = rules(&check_model(&m));
        prop_ensure!(
            got.contains(&"TR003"),
            "{name}: dropping {col} at tier {tier} should raise TR003, got {got:?}"
        );
        // The pairing rule fires only when a *downstream* tier loses its
        // DS→DR window; the leaf tier has no downstream edge.
        prop_ensure!(
            got.contains(&"TR004") == (tier < last),
            "{name}: TR004 at tier {tier}/{last} mismatched, got {got:?}"
        );
        Ok(())
    });
}

#[test]
fn type_drift_is_flagged_as_tr005_or_tr006() {
    let presets = SystemConfig::presets();
    forall("type drift", 32, |g: &mut Gen| {
        let (name, cfg) = g.choose(&presets);
        let mut m = ScenarioModel::build(name, &cfg);
        if g.bool() {
            // Declare the front tier's integer `status` field as a
            // wall-clock capture: declared Timestamp joins the renderer's
            // Int lossily to Text.
            let idx = event_idx(&m, 0);
            map_tokens(&mut m.monitors[idx].decl, |t| match t {
                Tok::Cap(n) if n == "status" => Tok::wall("status"),
                other => other.clone(),
            });
            let got = rules(&check_model(&m));
            prop_ensure!(
                got.contains(&"TR005"),
                "{name}: Timestamp-vs-Int narrowing should raise TR005, got {got:?}"
            );
        } else {
            // Rename the injected `node` constant on every replica of a
            // tier (declaration routing is shared, so real drift hits all
            // instances): every analysis query selecting `node` from that
            // tier's event table goes stale.
            let tier = g.usize(0..=cfg.tiers.len() - 1);
            for mm in &mut m.monitors {
                if mm.meta.kind != MonitorKind::Event || mm.meta.node.tier.0 != tier {
                    continue;
                }
                for (k, _) in &mut mm.decl.constants {
                    if k == "node" {
                        *k = "host".to_string();
                    }
                }
            }
            let got = rules(&check_model(&m));
            prop_ensure!(
                got.contains(&"TR006"),
                "{name}: renaming `node` at tier {tier} should raise TR006, got {got:?}"
            );
        }
        Ok(())
    });
}

#[test]
fn clock_and_sampling_drift_are_flagged_as_tr007_and_tr008() {
    let presets = SystemConfig::presets();
    forall("clock drift", 32, |g: &mut Gen| {
        let (name, cfg) = g.choose(&presets);
        let mut m = ScenarioModel::build(name, &cfg);
        let idx = m
            .monitors
            .iter()
            .position(|mm| mm.meta.tool == "collectl")
            .expect("collectl deployed everywhere");
        // Demote the wall-clock capture to a plain one: rows can no longer
        // be anchored on the experiment timeline.
        map_tokens(&mut m.monitors[idx].decl, |t| match t {
            Tok::Wall(n) => Tok::cap(n),
            other => other.clone(),
        });
        let got = rules(&check_model(&m));
        prop_ensure!(
            got.contains(&"TR007"),
            "{name}: de-walled collectl should raise TR007, got {got:?}"
        );
        Ok(())
    });

    // Sampling drift needs a scenario that actually has a phenomenon.
    let phenom_presets: Vec<(&str, SystemConfig)> = SystemConfig::presets()
        .into_iter()
        .filter(|(_, cfg)| !ScenarioModel::build("probe", cfg).phenomena().is_empty())
        .collect();
    assert!(phenom_presets.len() >= 2, "both headline scenarios qualify");
    forall("sampling drift", 32, |g: &mut Gen| {
        let (name, cfg) = g.choose(&phenom_presets);
        let mut cfg = cfg;
        // Coarsen the base sample period past half the scenario's longest
        // episode timescale, so at least one phenomenon aliases into noise.
        let max_ms = ScenarioModel::build(name, &cfg)
            .phenomena()
            .iter()
            .map(|p| p.timescale.as_micros() / 1000)
            .max()
            .unwrap_or(0);
        let floor = (max_ms / 2 + 1).max(400);
        cfg.sample_period = mscope_sim::SimDuration::from_millis(g.u64(floor..=floor + 4600));
        let got = rules(&mscope_lint::trace::check_scenario(name, &cfg));
        prop_ensure!(
            got.contains(&"TR008"),
            "{name}: {} sampling should raise TR008, got {got:?}",
            cfg.sample_period
        );
        Ok(())
    });

    // A phenomenon too short for any deployed monitor: a 16 KiB commit
    // buffer at 16 MB/s stalls the database for ~1 ms.
    let mut cfg = SystemConfig::scenario_db_io(100);
    cfg.tiers[3]
        .log_flush
        .as_mut()
        .expect("the db-io scenario flushes its commit log")
        .buffer_threshold = 16 << 10;
    let got = rules(&mscope_lint::trace::check_scenario("scenario_db_io", &cfg));
    assert!(
        got.contains(&"TR008"),
        "a ~1 ms log-flush stall should raise TR008, got {got:?}"
    );
}
