//! The model registry: versioned, stage-tracked storage of trained models
//! with their benchmark evaluations — the hand-off point between Data
//! Scientists and MLOps Engineers (paper §VII).

use mfp_dram::geometry::Platform;
use mfp_dram::time::SimTime;
use mfp_ml::metrics::Evaluation;
use mfp_ml::model::{Algorithm, Model};
use std::sync::{Arc, RwLock};

/// Lock-poisoning panic message: a writer panicked mid-update.
const POISONED: &str = "model registry lock poisoned by a panicked writer";

/// Lifecycle stage of a registered model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Registered, not yet promoted.
    Staging,
    /// Serving online predictions.
    Production,
    /// Superseded or rolled back.
    Archived,
}

/// One registry entry.
#[derive(Debug, Clone)]
pub struct ModelEntry {
    /// Monotonic id within the registry.
    pub id: u64,
    /// Algorithm family.
    pub algorithm: Algorithm,
    /// Target platform (models are platform-specific).
    pub platform: Platform,
    /// Simulated time the model was trained.
    pub trained_at: SimTime,
    /// Offline benchmark evaluation (DIMM-level, validation data).
    pub benchmark: Evaluation,
    /// Decision threshold shipped with the model.
    pub threshold: f32,
    /// Lifecycle stage.
    pub stage: Stage,
    /// The model itself, shared: every lookup clones the entry, which then
    /// only bumps a reference count instead of copying every tree.
    pub model: Arc<Model>,
}

/// Thread-safe model registry.
#[derive(Debug, Default)]
pub struct ModelRegistry {
    entries: RwLock<Vec<ModelEntry>>,
}

impl ModelRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        ModelRegistry::default()
    }

    /// Registers a model in `Staging`; returns its id.
    pub fn register(
        &self,
        algorithm: Algorithm,
        platform: Platform,
        trained_at: SimTime,
        benchmark: Evaluation,
        threshold: f32,
        model: Model,
    ) -> u64 {
        let mut entries = self.entries.write().expect(POISONED);
        let id = entries.len() as u64 + 1;
        entries.push(ModelEntry {
            id,
            algorithm,
            platform,
            trained_at,
            benchmark,
            threshold,
            stage: Stage::Staging,
            model: Arc::new(model),
        });
        id
    }

    /// Promotes a model to production, archiving the previous production
    /// model of the same platform.
    ///
    /// Returns false when the id is unknown.
    pub fn promote(&self, id: u64) -> bool {
        let mut entries = self.entries.write().expect(POISONED);
        let Some(platform) = entries.iter().find(|e| e.id == id).map(|e| e.platform) else {
            return false;
        };
        for e in entries.iter_mut() {
            if e.platform == platform && e.stage == Stage::Production {
                e.stage = Stage::Archived;
            }
        }
        for e in entries.iter_mut() {
            if e.id == id {
                e.stage = Stage::Production;
                return true;
            }
        }
        false
    }

    /// Rolls back: archives the current production model of `platform` and
    /// restores the most recently archived one.
    pub fn rollback(&self, platform: Platform) -> Option<u64> {
        let mut entries = self.entries.write().expect(POISONED);
        let current = entries
            .iter()
            .position(|e| e.platform == platform && e.stage == Stage::Production)?;
        let previous = entries
            .iter()
            .enumerate()
            .filter(|(i, e)| *i != current && e.platform == platform && e.stage == Stage::Archived)
            .max_by_key(|(_, e)| e.id)
            .map(|(i, _)| i)?;
        entries[current].stage = Stage::Archived;
        entries[previous].stage = Stage::Production;
        Some(entries[previous].id)
    }

    /// The production model of a platform, if any.
    pub fn production(&self, platform: Platform) -> Option<ModelEntry> {
        self.entries
            .read()
            .expect(POISONED)
            .iter()
            .find(|e| e.platform == platform && e.stage == Stage::Production)
            .cloned()
    }

    /// Entry by id.
    pub fn get(&self, id: u64) -> Option<ModelEntry> {
        self.entries
            .read()
            .expect(POISONED)
            .iter()
            .find(|e| e.id == id)
            .cloned()
    }

    /// All entries (snapshot).
    pub fn list(&self) -> Vec<ModelEntry> {
        self.entries.read().expect(POISONED).clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfp_ml::metrics::Confusion;
    use mfp_ml::risky_ce::RiskyCePattern;

    fn eval(f1_tp: u32) -> Evaluation {
        Evaluation::from_confusion(
            Confusion {
                tp: f1_tp,
                fp: 2,
                fn_: 2,
                tn: 90,
            },
            0.5,
        )
    }

    fn dummy_model() -> Model {
        Model::RiskyCe(RiskyCePattern::default())
    }

    #[test]
    fn register_and_promote() {
        let reg = ModelRegistry::new();
        let id = reg.register(
            Algorithm::RiskyCePattern,
            Platform::K920,
            SimTime::ZERO,
            eval(5),
            0.5,
            dummy_model(),
        );
        assert!(reg.production(Platform::K920).is_none());
        assert!(reg.promote(id));
        assert_eq!(reg.production(Platform::K920).unwrap().id, id);
        assert!(!reg.promote(999));
    }

    #[test]
    fn promotion_archives_previous() {
        let reg = ModelRegistry::new();
        let a = reg.register(
            Algorithm::RiskyCePattern,
            Platform::K920,
            SimTime::ZERO,
            eval(5),
            0.5,
            dummy_model(),
        );
        let b = reg.register(
            Algorithm::RiskyCePattern,
            Platform::K920,
            SimTime::from_secs(10),
            eval(8),
            0.6,
            dummy_model(),
        );
        reg.promote(a);
        reg.promote(b);
        assert_eq!(reg.production(Platform::K920).unwrap().id, b);
        assert_eq!(reg.get(a).unwrap().stage, Stage::Archived);
    }

    #[test]
    fn rollback_restores_previous() {
        let reg = ModelRegistry::new();
        let a = reg.register(
            Algorithm::RiskyCePattern,
            Platform::K920,
            SimTime::ZERO,
            eval(5),
            0.5,
            dummy_model(),
        );
        let b = reg.register(
            Algorithm::RiskyCePattern,
            Platform::K920,
            SimTime::from_secs(10),
            eval(8),
            0.6,
            dummy_model(),
        );
        reg.promote(a);
        reg.promote(b);
        let restored = reg.rollback(Platform::K920).unwrap();
        assert_eq!(restored, a);
        assert_eq!(reg.production(Platform::K920).unwrap().id, a);
        assert_eq!(reg.get(b).unwrap().stage, Stage::Archived);
    }

    #[test]
    fn platforms_are_independent() {
        let reg = ModelRegistry::new();
        let a = reg.register(
            Algorithm::RiskyCePattern,
            Platform::K920,
            SimTime::ZERO,
            eval(5),
            0.5,
            dummy_model(),
        );
        let b = reg.register(
            Algorithm::RiskyCePattern,
            Platform::IntelPurley,
            SimTime::ZERO,
            eval(5),
            0.5,
            dummy_model(),
        );
        reg.promote(a);
        reg.promote(b);
        assert_eq!(reg.production(Platform::K920).unwrap().id, a);
        assert_eq!(reg.production(Platform::IntelPurley).unwrap().id, b);
    }
}
