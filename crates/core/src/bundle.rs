//! Log bundles: persist an experiment's native logs (plus the manifest and
//! configuration) to a directory, and re-ingest them later — milliScope's
//! offline workflow. The paper's pipeline is explicitly offline ("at the
//! end of the pipeline these semi-structured data are transformed …"); a
//! bundle is the artifact a practitioner would archive per incident.

use crate::error::CoreError;
use crate::experiment::ExperimentOutput;
use crate::milliscope::MilliScope;
use crate::RunOptions;
use mscope_monitors::{LogFileMeta, LogStore};
use mscope_ntier::SystemConfig;
use std::path::Path;

/// File name of the manifest inside a bundle.
pub const MANIFEST_FILE: &str = "manifest.json";
/// File name of the system configuration inside a bundle.
pub const CONFIG_FILE: &str = "config.json";

/// Writes an experiment's logs + metadata to `dir` so it can be re-ingested
/// later with [`ingest_bundle`].
///
/// # Errors
///
/// I/O failures and serialization failures.
pub fn dump_bundle(output: &ExperimentOutput, dir: &Path) -> Result<(), CoreError> {
    output
        .artifacts
        .store
        .dump_to_dir(dir)
        .map_err(|e| CoreError::Analysis(format!("dumping logs: {e}")))?;
    let manifest = mscope_serdes::to_string_pretty(&output.artifacts.manifest);
    std::fs::write(dir.join(MANIFEST_FILE), manifest)
        .map_err(|e| CoreError::Analysis(format!("writing manifest: {e}")))?;
    let config = mscope_serdes::to_string_pretty(&output.run.config);
    std::fs::write(dir.join(CONFIG_FILE), config)
        .map_err(|e| CoreError::Analysis(format!("writing config: {e}")))?;
    Ok(())
}

/// Loads a bundle directory and runs the full transformation pipeline over
/// its logs, returning a queryable [`MilliScope`].
///
/// The SysViz trace is not part of a bundle (it is a separate appliance's
/// capture in the paper), so [`MilliScope::sysviz`] is `None` after an
/// offline ingest.
///
/// # Errors
///
/// Missing/corrupt manifest or config, and any transformation error.
pub fn ingest_bundle(dir: &Path) -> Result<MilliScope, CoreError> {
    let manifest_text = std::fs::read_to_string(dir.join(MANIFEST_FILE))
        .map_err(|e| CoreError::Analysis(format!("reading {MANIFEST_FILE}: {e}")))?;
    let manifest: Vec<LogFileMeta> = mscope_serdes::from_str(&manifest_text)
        .map_err(|e| CoreError::Analysis(format!("parsing {MANIFEST_FILE}: {e}")))?;
    let config_text = std::fs::read_to_string(dir.join(CONFIG_FILE))
        .map_err(|e| CoreError::Analysis(format!("reading {CONFIG_FILE}: {e}")))?;
    let config: SystemConfig = mscope_serdes::from_str(&config_text)
        .map_err(|e| CoreError::Analysis(format!("parsing {CONFIG_FILE}: {e}")))?;
    let mut store = LogStore::load_from_dir(dir)
        .map_err(|e| CoreError::Analysis(format!("loading logs: {e}")))?;
    // The metadata files are not monitor logs.
    store.remove(MANIFEST_FILE);
    store.remove(CONFIG_FILE);
    MilliScope::from_parts_with(config, &store, &manifest, None, RunOptions::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::Experiment;
    use crate::scenarios::shorten;
    use mscope_sim::SimDuration;

    #[test]
    fn bundle_roundtrip_reingests_identically() {
        let cfg = shorten(SystemConfig::rubbos_baseline(80), SimDuration::from_secs(8));
        let output = Experiment::new(cfg).unwrap().run();
        let live = MilliScope::ingest(&output).unwrap();

        let dir = std::env::temp_dir().join(format!("mscope-bundle-{}", std::process::id()));
        dump_bundle(&output, &dir).unwrap();
        let offline = ingest_bundle(&dir).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();

        // Same tables, same row counts, same PIT series.
        assert_eq!(live.db().table_names(), offline.db().table_names());
        for name in live.db().dynamic_table_names() {
            assert_eq!(
                live.db().require(name).unwrap().row_count(),
                offline.db().require(name).unwrap().row_count(),
                "table {name}"
            );
        }
        let w = SimDuration::from_millis(50);
        assert_eq!(live.pit(w).unwrap(), offline.pit(w).unwrap());
        // The tap is not part of a bundle.
        assert!(offline.sysviz().is_none());
    }

    #[test]
    fn ingest_bundle_errors_on_missing_manifest() {
        let dir = std::env::temp_dir().join(format!("mscope-nobundle-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        assert!(ingest_bundle(&dir).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
