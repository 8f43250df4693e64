//! Seeded inputs: the query texts and mutation specs each workload sends.
//!
//! Everything here is a pure function of a seed and the workload's
//! federation, so one seed always yields the same request stream.

use fedoq_core::Federation;
use fedoq_object::{CmpOp, DbId, Value};
use fedoq_query::Query;
use fedoq_workload::{university, WorkloadParams};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One-shot query strategies, cycled request by request.
pub const STRATEGIES: [&str; 4] = ["ca", "bl", "pl", "adaptive"];

/// Standing-query strategies, cycled across a fleet.
pub const LIVE_STRATEGIES: [&str; 4] = ["ca", "bl", "pl", "hy"];

/// Value domain of the generated predicate attributes (Table 2).
const DOMAIN: i64 = 1000;

/// The query texts one connection sends.
pub enum Texts {
    /// The paper's Q1, verbatim, every time.
    Q1,
    /// Table-2 query shapes over the `C1 → C2 → …` chain.
    Gen {
        /// Predicate attributes of each chained class, in order.
        chain: Vec<Vec<String>>,
        /// Keep the generator's whole-object (target-less) queries.
        whole_objects: bool,
        /// The stream's generator.
        rng: StdRng,
    },
}

impl Texts {
    /// The generated family over `fed`, seeded by `seed`.
    ///
    /// With `whole_objects`, target-less queries (`SELECT X FROM C1 X
    /// …`) appear at the rate the Table-2 generator draws zero target
    /// attributes; without, such draws are redrawn with one or two.
    pub fn generated(fed: &Federation, seed: u64, whole_objects: bool) -> Texts {
        Texts::Gen {
            chain: predicate_chain(fed),
            whole_objects,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The next query text.
    pub fn next_text(&mut self) -> String {
        match self {
            Texts::Q1 => university::Q1.to_string(),
            Texts::Gen {
                chain,
                whole_objects,
                rng,
            } => draw_query(chain, *whole_objects, rng),
        }
    }
}

/// Predicate attributes `p0, p1, …` of each class `C1, C2, …` of a
/// generated federation.
fn predicate_chain(fed: &Federation) -> Vec<Vec<String>> {
    let schema = fed.global_schema();
    let mut chain = Vec::new();
    while let Some(class) = schema.class_by_name(&format!("C{}", chain.len() + 1)) {
        let mut preds: Vec<(u32, String)> = class
            .attrs()
            .iter()
            .filter_map(|a| {
                let n = a.name().strip_prefix('p')?.parse().ok()?;
                Some((n, a.name().to_string()))
            })
            .collect();
        preds.sort();
        chain.push(preds.into_iter().map(|(_, name)| name).collect());
    }
    chain
}

/// One Table-2 query shape, drawn the way the generator draws a sample
/// (class count, predicates per class, selectivities, target count),
/// clipped to the federation's chain, with each literal jittered around
/// its selectivity threshold so that nearly every text is distinct.
fn draw_query(chain: &[Vec<String>], whole_objects: bool, rng: &mut StdRng) -> String {
    let config = WorkloadParams::paper_default().sample(rng);
    let mut targets = config.n_targets;
    if targets == 0 && !whole_objects {
        targets = rng.gen_range(1..=2);
    }
    let mut query = Query::new("C1");
    for t in 0..targets.min(2) {
        query = query.target(&format!("t{t}"));
    }
    for (k, preds) in chain.iter().enumerate().take(config.n_classes) {
        let threshold = (config.selectivity[k] * DOMAIN as f64).round() as i64;
        for pred in preds.iter().take(config.preds_per_class[k]) {
            let path = format!("{}{pred}", "next.".repeat(k));
            let literal = (threshold + rng.gen_range(-50i64..=50)).clamp(0, DOMAIN);
            query = query.filter(&path, CmpOp::Lt, Value::Int(literal));
        }
    }
    query.to_string()
}

/// A keyed class at one site that mutations can target.
struct Target {
    db: DbId,
    class: String,
    /// Key attribute slots.
    key: Vec<usize>,
    /// Primitive, non-key attribute slots (update targets).
    settable: Vec<usize>,
    /// Every primitive attribute name, by slot (`None` for references).
    names: Vec<Option<String>>,
}

/// A seeded stream of `insert`/`update` mutation specs over a fixed
/// snapshot of a federation: updates select an existing object by key
/// and copy another object's value (or null) into one attribute;
/// inserts take fresh keys and copied values, leaving references null.
pub struct Mutations<'a> {
    fed: &'a Federation,
    targets: Vec<Target>,
    rng: StdRng,
    fresh: u64,
}

impl<'a> Mutations<'a> {
    /// The stream over `fed` (read only; the specs never depend on
    /// mutations applied elsewhere).
    pub fn new(fed: &'a Federation, seed: u64) -> Mutations<'a> {
        let mut targets = Vec::new();
        for db in fed.dbs() {
            for (class_id, def) in db.schema().iter() {
                if def.key_attrs().is_empty() || db.extent(class_id).objects().is_empty() {
                    continue;
                }
                let names: Vec<Option<String>> = def
                    .attrs()
                    .iter()
                    .map(|a| (!a.ty().is_complex()).then(|| a.name().to_string()))
                    .collect();
                let key: Vec<usize> = def
                    .key_attrs()
                    .iter()
                    .filter_map(|k| def.attr_index(k))
                    .collect();
                let settable = (0..names.len())
                    .filter(|s| names[*s].is_some() && !key.contains(s))
                    .collect();
                targets.push(Target {
                    db: db.id(),
                    class: def.name().to_string(),
                    key,
                    settable,
                    names,
                });
            }
        }
        Mutations {
            fed,
            targets,
            rng: StdRng::seed_from_u64(seed),
            fresh: 0,
        }
    }

    /// The next `(site, spec)`.
    pub fn next_spec(&mut self) -> (u16, String) {
        let index = self.rng.gen_range(0..self.targets.len());
        let t = &self.targets[index];
        let db = self.fed.db(t.db);
        let class_id = db.schema().class_id(&t.class).expect("target class exists");
        let objects = db.extent(class_id).objects();
        let pick = |rng: &mut StdRng| &objects[rng.gen_range(0..objects.len())];
        let copy = |rng: &mut StdRng, slot: usize| {
            if rng.gen_bool(0.2) {
                "null".to_string()
            } else {
                literal(pick(rng).value(slot))
            }
        };
        let victim = pick(&mut self.rng);
        let keyed = t.key.iter().all(|&s| !victim.value(s).is_null());
        let name = |slot: usize| t.names[slot].as_deref().unwrap_or_default();
        let spec = if keyed && !t.settable.is_empty() && self.rng.gen_bool(0.7) {
            let matches: Vec<String> = t
                .key
                .iter()
                .map(|&s| format!("{}={}", name(s), literal(victim.value(s))))
                .collect();
            let slot = t.settable[self.rng.gen_range(0..t.settable.len())];
            let value = copy(&mut self.rng, slot);
            format!(
                "update {} where {} set {}={value}",
                t.class,
                matches.join(","),
                name(slot)
            )
        } else {
            self.fresh += 1;
            let mut sets: Vec<String> = Vec::new();
            for &s in &t.key {
                let fresh = match victim.value(s) {
                    Value::Int(_) => (1_000_000 + self.fresh).to_string(),
                    _ => format!("'n{}'", self.fresh),
                };
                sets.push(format!("{}={fresh}", name(s)));
            }
            for &s in &t.settable {
                sets.push(format!("{}={}", name(s), copy(&mut self.rng, s)));
            }
            format!("insert {} {}", t.class, sets.join(","))
        };
        (t.db.index() as u16, spec)
    }
}

/// A value as the mutation grammar spells it.
fn literal(value: &Value) -> String {
    match value {
        Value::Null => "null".to_string(),
        Value::Int(i) => i.to_string(),
        Value::Float(f) => format!("{f:?}"),
        other => format!("'{other}'"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedoq_wire::{apply_mutation, build_workload, parse_mutation};

    #[test]
    fn generated_texts_are_seeded_and_mostly_distinct() {
        let (fed, _) = build_workload("gen:0.02:7").unwrap();
        let draw = |seed| {
            let mut texts = Texts::generated(&fed, seed, true);
            (0..200).map(|_| texts.next_text()).collect::<Vec<_>>()
        };
        let a = draw(3);
        assert_eq!(a, draw(3));
        assert_ne!(a, draw(4));
        let distinct: std::collections::BTreeSet<_> = a.iter().collect();
        assert!(distinct.len() > 150, "{} distinct", distinct.len());
        let whole = a.iter().filter(|t| t.starts_with("SELECT X FROM")).count();
        assert!(whole > 20 && whole < 120, "{whole} whole-object texts");
        for text in &a {
            if !text.starts_with("SELECT X FROM") {
                fed.parse_and_bind(text).unwrap();
            }
        }
        let mut texts = Texts::generated(&fed, 3, false);
        for _ in 0..200 {
            fed.parse_and_bind(&texts.next_text()).unwrap();
        }
    }

    #[test]
    fn mutation_specs_apply_cleanly() {
        for spec in ["university", "gen:0.02:7"] {
            let (base, _) = build_workload(spec).unwrap();
            let (mut mirror, _) = build_workload(spec).unwrap();
            let mut stream = Mutations::new(&base, 11);
            let (mut inserts, mut updates) = (0, 0);
            for _ in 0..200 {
                let (db, spec) = stream.next_spec();
                let mutation = parse_mutation(&spec).unwrap();
                let summary = mirror
                    .mutate(DbId::new(db), |cdb| apply_mutation(cdb, &mutation))
                    .unwrap_or_else(|e| panic!("{spec}: {e}"));
                if summary.starts_with("inserted") {
                    inserts += 1;
                } else {
                    assert!(summary.starts_with("updated 1 "), "{spec}: {summary}");
                    updates += 1;
                }
            }
            assert!(
                inserts > 20 && updates > 20,
                "{inserts} inserts, {updates} updates"
            );
        }
    }
}
