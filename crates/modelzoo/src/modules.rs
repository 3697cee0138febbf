//! Working implementations of the design-space modules (Figure 13).
//!
//! These are not stubs: schema linking really prunes the schema by matching
//! question tokens against table/column names; DB-content matching really
//! scans cell values (the BRIDGE v2 string-matching strategy, used verbatim
//! in the SuperSQL prompt of Figure 15); few-shot selection really ranks
//! training examples by question similarity (the DAIL-SQL strategy). Their
//! outputs feed the prompt builders, so module choices change real token
//! counts; their accuracy contribution enters composed pipelines through
//! [`module_ex_bonus`].

use crate::taxonomy::{Decoding, FewShot, Intermediate, ModuleSet, MultiStep, PostProcessing};
use datagen::{GeneratedDb, Sample};
use minidb::Value;
use std::collections::HashSet;

/// Lower-cased word tokens of a question.
pub fn tokenize_question(q: &str) -> Vec<String> {
    q.split(|c: char| !c.is_alphanumeric())
        .filter(|w| !w.is_empty())
        .map(|w| w.to_lowercase())
        .collect()
}

/// Schema linking (RESDSQL-style ranking): keep tables whose name or column
/// names overlap the question tokens; always keep at least one table, and
/// keep FK-parents of kept tables so joins stay expressible.
pub fn schema_link<'a>(db: &'a GeneratedDb, question: &str) -> Vec<&'a minidb::TableSchema> {
    let tokens: HashSet<String> = tokenize_question(question).into_iter().collect();
    let name_matches = |name: &str| {
        let parts = name.to_lowercase();
        parts
            .split('_')
            .any(|p| tokens.contains(p) || tokens.contains(&format!("{p}s")) || p.len() > 3 && tokens.iter().any(|t| t.starts_with(p)))
    };
    let mut kept: Vec<&minidb::TableSchema> = Vec::new();
    for t in db.database.tables() {
        let schema = &t.schema;
        let hit = name_matches(&schema.name)
            || schema.columns.iter().any(|c| name_matches(&c.name));
        if hit {
            kept.push(schema);
        }
    }
    if kept.is_empty() {
        if let Some(t) = db.database.tables().next() {
            kept.push(&t.schema);
        }
    }
    // close over FK parents
    loop {
        let names: HashSet<&str> = kept.iter().map(|s| s.name.as_str()).collect();
        let mut added = false;
        let mut to_add: Vec<&minidb::TableSchema> = Vec::new();
        for s in &kept {
            for fk in &s.foreign_keys {
                if !names.contains(fk.ref_table.as_str()) {
                    if let Ok(parent) = db.database.table(&fk.ref_table) {
                        to_add.push(&parent.schema);
                        added = true;
                    }
                }
            }
        }
        kept.extend(to_add);
        kept.sort_by(|a, b| a.name.cmp(&b.name));
        kept.dedup_by(|a, b| a.name == b.name);
        if !added {
            break;
        }
    }
    kept
}

/// A matched (table, column, value) triple from DB-content matching.
#[derive(Debug, Clone, PartialEq)]
pub struct ContentMatch {
    /// Table name.
    pub table: String,
    /// Column name.
    pub column: String,
    /// The matched cell value.
    pub value: String,
}

/// DB-content matching (BRIDGE v2 style): find cell values whose text occurs
/// in the question; the matches annotate columns in the prompt.
pub fn match_db_content(db: &GeneratedDb, question: &str, limit: usize) -> Vec<ContentMatch> {
    let q_lower = question.to_lowercase();
    let mut out = Vec::new();
    for t in db.database.tables() {
        for (ci, col) in t.schema.columns.iter().enumerate() {
            if out.len() >= limit {
                return out;
            }
            // text columns only; scan distinct values
            let column = t.column(ci);
            let mut seen: HashSet<String> = HashSet::new();
            for r in 0..t.n_rows() {
                if let Value::Text(s) = column.get(r) {
                    if s.len() >= 3 && seen.insert(s.clone()) && q_lower.contains(&s.to_lowercase()) {
                        out.push(ContentMatch {
                            table: t.schema.name.clone(),
                            column: col.name.clone(),
                            value: s.clone(),
                        });
                        if out.len() >= limit {
                            return out;
                        }
                    }
                }
            }
        }
    }
    out
}

/// Jaccard similarity between two question token sets (the core of
/// DAIL-SQL's masked-question similarity selection); 0 when both are empty.
fn jaccard(a: &HashSet<String>, b: &HashSet<String>) -> f64 {
    let inter = a.intersection(b).count() as f64;
    let union = (a.len() + b.len()) as f64 - inter;
    if union > 0.0 {
        inter / union
    } else {
        0.0
    }
}

/// A pre-tokenized few-shot retrieval index over a training pool.
///
/// Selecting examples for every dev question would otherwise re-tokenize
/// the full training set per query; the index tokenizes once and reuses the
/// token sets across all methods and samples.
pub struct FewShotIndex<'a> {
    samples: &'a [Sample],
    tokens: Vec<HashSet<String>>,
}

impl<'a> FewShotIndex<'a> {
    /// Build the index (tokenizes every training question once).
    pub fn new(samples: &'a [Sample]) -> Self {
        let tokens = samples
            .iter()
            .map(|s| tokenize_question(s.question()).into_iter().collect())
            .collect();
        Self { samples, tokens }
    }

    /// Number of indexed samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Few-shot selection (DAIL-SQL style): the `k` training samples most
    /// similar to `question`, by descending similarity and then ascending
    /// pool index.
    pub fn select(&self, question: &str, k: usize) -> Vec<&'a Sample> {
        let q: HashSet<String> = tokenize_question(question).into_iter().collect();
        let mut scored: Vec<(f64, usize)> =
            self.tokens.iter().enumerate().map(|(i, t)| (jaccard(&q, t), i)).collect();
        scored.sort_by(|a, b| {
            b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal).then(a.1.cmp(&b.1))
        });
        scored.into_iter().take(k).map(|(_, i)| &self.samples[i]).collect()
    }
}

/// Accuracy contribution (EX percentage points on Spider-style data) of a
/// module configuration on top of a bare backbone. Drives composed
/// pipelines and the AAS search; the constants reflect the ablation
/// patterns the paper reports (schema linking and few-shot examples help
/// most; NatSQL helps JOIN-heavy data; decomposition helps nesting but
/// costs tokens).
pub fn module_ex_bonus(m: &ModuleSet) -> f64 {
    // several modules only pay off next to a decoder that produces multiple
    // constrained candidates (the PLM setup); API backbones decode greedily
    let constrained = matches!(m.decoding, Decoding::Beam | Decoding::Picard);
    let mut bonus = 0.0;
    if m.schema_linking {
        bonus += 2.4;
    }
    if m.db_content {
        bonus += 1.5;
    }
    bonus += match m.few_shot {
        FewShot::ZeroShot => 0.0,
        FewShot::Manual => 1.0,
        FewShot::SimilarityBased => 2.1,
    };
    bonus += match m.multi_step {
        MultiStep::None => 0.0,
        // skeleton-first generation needs a constrained decoder to fill the
        // skeleton reliably
        MultiStep::SkeletonParsing => {
            if constrained {
                0.6
            } else {
                0.0
            }
        }
        // staged decomposition propagates errors on flat queries; it earns
        // its keep only on nested SQL (see `module_subquery_bonus`)
        MultiStep::Decomposition => -0.6,
    };
    bonus += match m.intermediate {
        Intermediate::None => 0.0,
        // NatSQL is lossy without grammar-constrained decoding back to SQL;
        // its JOIN advantage lives in `module_join_bonus`
        Intermediate::NatSql => {
            if constrained {
                0.8
            } else {
                -0.5
            }
        }
    };
    bonus += match m.decoding {
        Decoding::Greedy => 0.0,
        Decoding::Beam => 0.4,
        Decoding::Picard => 0.9,
    };
    bonus += match m.post {
        PostProcessing::None => 0.0,
        PostProcessing::SelfCorrection => 0.3,
        PostProcessing::SelfConsistency => 0.9,
        // candidate selection needs candidates: with greedy decoding there
        // is only one output to select or rerank
        PostProcessing::ExecutionGuided => {
            if constrained {
                1.0
            } else {
                0.1
            }
        }
        PostProcessing::Reranker => {
            if constrained {
                0.7
            } else {
                0.1
            }
        }
        // identifier repair works on the single decoded output, so it pays
        // off regardless of the decoder — but only recovers schema-binding
        // mistakes, a slice of all errors
        PostProcessing::StaticRepair => 0.5,
    };
    // decomposition stages and similarity-selected exemplars fight for the
    // same prompt structure
    if m.multi_step == MultiStep::Decomposition && m.few_shot == FewShot::SimilarityBased {
        bonus -= 0.8;
    }
    bonus
}

/// Subquery-specific extra points of a configuration (decomposition shines
/// on nested SQL — paper Finding 2's mechanism).
pub fn module_subquery_bonus(m: &ModuleSet) -> f64 {
    let mut b = 0.0;
    if m.multi_step == MultiStep::Decomposition {
        b += 2.0;
    }
    b
}

/// JOIN-specific extra points (NatSQL omits JOIN keywords — Finding 4).
pub fn module_join_bonus(m: &ModuleSet) -> f64 {
    let mut b = 0.0;
    if m.intermediate == Intermediate::NatSql {
        b += 2.0;
    }
    if m.schema_linking {
        b += 0.5;
    }
    b
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::{generate_corpus, CorpusConfig, CorpusKind};

    fn corpus() -> datagen::Corpus {
        generate_corpus(CorpusKind::Spider, &CorpusConfig::tiny(5))
    }

    #[test]
    fn schema_linking_prunes_but_keeps_relevant() {
        let c = corpus();
        let s = &c.dev[0];
        let db = c.db(s);
        let kept = schema_link(db, s.question());
        assert!(!kept.is_empty());
        assert!(kept.len() <= db.database.table_count());
        // the tables referenced by the gold SQL should survive pruning
        let mut referenced: Vec<String> = Vec::new();
        if let Some(from) = &s.query.body.from {
            for t in from.tables() {
                if let sqlkit::ast::TableRef::Named { name, .. } = t {
                    referenced.push(name.to_lowercase());
                }
            }
        }
        let kept_names: Vec<String> = kept.iter().map(|k| k.name.to_lowercase()).collect();
        for r in &referenced {
            assert!(
                kept_names.contains(r),
                "gold table {r} pruned away for question {:?}; kept {kept_names:?}",
                s.question()
            );
        }
    }

    #[test]
    fn schema_linking_closes_over_fk_parents() {
        let c = corpus();
        for s in c.dev.iter().take(10) {
            let kept = schema_link(c.db(s), s.question());
            let names: HashSet<&str> = kept.iter().map(|k| k.name.as_str()).collect();
            for k in &kept {
                for fk in &k.foreign_keys {
                    assert!(names.contains(fk.ref_table.as_str()), "unclosed FK parent");
                }
            }
        }
    }

    #[test]
    fn content_match_finds_quoted_values() {
        let c = corpus();
        // find a dev sample whose question embeds a text value
        let hit = c.dev.iter().find_map(|s| {
            let matches = match_db_content(c.db(s), s.question(), 8);
            (!matches.is_empty()).then_some((s, matches))
        });
        let (s, matches) = hit.expect("some question should mention a cell value");
        for m in &matches {
            assert!(s.question().to_lowercase().contains(&m.value.to_lowercase()));
        }
    }

    #[test]
    fn content_match_respects_limit() {
        let c = corpus();
        let s = &c.dev[0];
        assert!(match_db_content(c.db(s), s.question(), 2).len() <= 2);
    }

    /// A training pool whose questions are `questions`, ids in order.
    fn pool(questions: &[&str]) -> Vec<Sample> {
        let template = corpus().train[0].clone();
        questions
            .iter()
            .enumerate()
            .map(|(id, q)| Sample { id, variants: vec![q.to_string()], ..template.clone() })
            .collect()
    }

    #[test]
    fn similarity_is_sane() {
        let pool = pool(&[
            "alpha beta",
            "what is the name of singers",
            "what is the age of singers",
            "What is the NAME of singers?",
            "gamma delta",
        ]);
        let index = FewShotIndex::new(&pool);
        let q = "what is the name of singers";
        let ids: Vec<usize> = index.select(q, 10).iter().map(|s| s.id).collect();
        // identical token sets first (case and punctuation do not count),
        // then the near match, then the disjoint ones; ties keep pool order
        assert_eq!(ids, [1, 3, 2, 0, 4]);
        let mid = jaccard(&index.tokens[1], &index.tokens[2]);
        assert!(mid > 0.3 && mid < 1.0, "{mid}");
        assert_eq!(jaccard(&index.tokens[0], &index.tokens[4]), 0.0);
        assert_eq!(index.select(q, 2).len(), 2);
    }

    #[test]
    fn few_shot_returns_most_similar_first() {
        let c = corpus();
        let index = FewShotIndex::new(&c.train);
        let q: HashSet<String> = tokenize_question(c.dev[0].question()).into_iter().collect();
        let shots = index.select(c.dev[0].question(), 5);
        assert_eq!(shots.len(), 5);
        let scored: Vec<(f64, usize)> = shots
            .iter()
            .map(|&s| {
                let i = c.train.iter().position(|t| std::ptr::eq(t, s)).expect("from the pool");
                (jaccard(&q, &index.tokens[i]), i)
            })
            .collect();
        // similarity descending, then pool index ascending
        assert!(scored
            .windows(2)
            .all(|w| w[0].0 > w[1].0 || (w[0].0 == w[1].0 && w[0].1 < w[1].1)));
        // nothing left out scores higher than the last pick
        let floor = scored[4].0;
        assert!(index.tokens.iter().enumerate().all(|(i, t)| {
            jaccard(&q, t) <= floor || scored.iter().any(|&(_, id)| id == i)
        }));
    }

    #[test]
    fn module_bonus_monotone_in_modules() {
        let bare = module_ex_bonus(&ModuleSet::bare());
        let full = module_ex_bonus(&ModuleSet::supersql());
        assert_eq!(bare, 0.0);
        assert!(full > 5.0, "supersql bonus {full}");
    }

    #[test]
    fn natsql_helps_joins() {
        let mut m = ModuleSet::bare();
        assert_eq!(module_join_bonus(&m), 0.0);
        m.intermediate = Intermediate::NatSql;
        assert!(module_join_bonus(&m) > 0.0);
    }
}
