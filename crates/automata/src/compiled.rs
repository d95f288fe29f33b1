//! Compiled execution tier: dense transition tables and fused product
//! kernels.
//!
//! The interpreted [`Dfa`] stores `trans: Vec<Vec<Option<usize>>>` and
//! resolves a symbol to its alphabet class by scanning the class list with
//! [`crate::dfa::ClassAtom::matches_class`]. That is fine for construction
//! but wasteful in the hot loops: the paper's decision procedures bottom
//! out in millions of automaton steps, each paying a class scan, an
//! `Option` branch, and a pointer chase per edge.
//!
//! [`CompiledDfa`] flattens a minimized DFA into
//!
//! * a **row-major `Vec<u32>` transition table** (`state * num_classes +
//!   class`) with an explicit [`DEAD`] sentinel, so every step is one
//!   bounds-checked load and one compare — no `Option`, no nested vec;
//! * an **accept bitset** (`Vec<u64>`, one bit per state);
//! * a **key → class index**: the class representatives' sorted keys, a
//!   binary search away, with the residual wildcard class (if the atom
//!   type has one) logically *last* — a symbol falls to it only when no
//!   specific key matches, mirroring the specific-first scan of
//!   [`Dfa::accepts`].
//!
//! On top of the table sit two fused kernels:
//!
//! * [`is_empty_product_compiled`] — pair product emptiness with product
//!   states packed into one `u64` (`q1 * n2 + q2`) and the seen-set a
//!   bitset, keeping the interpreter's [`Budget`] metering (same engine
//!   name, same tick cadence — one tick per start state and one per
//!   generated live successor) and [`Recorder`] spans, so verdicts *and*
//!   exhaustion diagnostics are bit-identical to the generic BFS of
//!   [`crate::ops::is_empty_product_b`] driven over the same tables;
//! * [`CompiledDfa::accepts`] — membership simulation (one binary search
//!   plus one load per symbol), the conformance/word-check kernel.
//!
//! Verdict identity is by construction: compilation only re-indexes the
//! minimized DFA (same states, same class partition, same targets), and
//! each kernel explores exactly the product the interpreter explores, in
//! the same order. `tests/compiled_differential.rs` checks this bit-for-
//! bit, including agreement of `Exhausted { engine, reason }` under tiny
//! fuel budgets.

use std::collections::VecDeque;

use ssd_base::budget::{Budget, BudgetResult};
use ssd_base::LabelId;
use ssd_obs::{names, Recorder};

use crate::dfa::{ClassAtom, Dfa};
use crate::syntax::LabelAtom;

/// The transition-table sentinel for "no transition": stepping into
/// [`DEAD`] means the word is rejected. Reserved, so compiled automata are
/// limited to `u32::MAX - 1` states (far beyond anything the budgets let
/// determinization produce).
pub const DEAD: u32 = u32::MAX;

/// Atoms whose alphabet classes can be compiled into a sorted key index.
///
/// A [`ClassAtom`] partition consists of *keyed* classes (each matching
/// exactly the symbols with one comparable key) plus at most one residual
/// *wildcard* class ("any other symbol"). This trait names the key type
/// and maps class representatives and concrete symbols onto it, which is
/// all [`compile`] needs to build the binary-searchable index.
pub trait CompileAtom: ClassAtom {
    /// The comparable key identifying a keyed class (e.g. [`LabelId`]).
    type Key: Ord + Copy + std::fmt::Debug;

    /// The key of this class representative, or `None` if it is the
    /// residual wildcard class.
    fn class_key(&self) -> Option<Self::Key>;

    /// The key of a concrete symbol (every symbol has one).
    fn sym_key(sym: &Self::Sym) -> Self::Key;
}

impl CompileAtom for LabelAtom {
    type Key = LabelId;

    fn class_key(&self) -> Option<LabelId> {
        match self {
            LabelAtom::Label(l) => Some(*l),
            LabelAtom::Any => None,
        }
    }

    fn sym_key(sym: &LabelId) -> LabelId {
        *sym
    }
}

/// A deterministic automaton compiled to a dense table. See the module
/// docs for the layout; construct with [`compile`].
#[derive(Clone, Debug)]
pub struct CompiledDfa<K> {
    /// Sorted, duplicate-free keys of the keyed classes; class `i` (for
    /// `i < keys.len()`) matches exactly the symbols with key `keys[i]`.
    keys: Vec<K>,
    /// Whether a residual wildcard class follows the keyed classes (class
    /// index `keys.len()`).
    wildcard: bool,
    /// Row-major transition table: `table[q * num_classes + c]`, with
    /// [`DEAD`] for "no transition".
    table: Vec<u32>,
    /// Accept bitset, one bit per state.
    accept: Vec<u64>,
    start: u32,
    num_states: u32,
    num_classes: u32,
}

/// Compiles a (typically minimized) DFA into a [`CompiledDfa`].
///
/// # Panics
///
/// Panics if the DFA's class list contains duplicate keys or more than one
/// wildcard class (the binary-searched index would silently misroute — the
/// invariant [`Dfa::debug_validate`] also enforces in debug builds), or if
/// the DFA has `u32::MAX` or more states (the [`DEAD`] sentinel is
/// reserved).
pub fn compile<A: CompileAtom>(dfa: &Dfa<A>) -> CompiledDfa<A::Key> {
    let n = dfa.num_states();
    assert!(
        (n as u64) < DEAD as u64,
        "compiled DFA limited to u32::MAX - 1 states (DEAD sentinel reserved)"
    );
    // Split the class partition into keyed classes and the wildcard.
    let mut keyed: Vec<(A::Key, usize)> = Vec::new();
    let mut wildcard_class: Option<usize> = None;
    for (c, class) in dfa.classes().iter().enumerate() {
        match class.class_key() {
            Some(k) => keyed.push((k, c)),
            None => {
                assert!(
                    wildcard_class.is_none(),
                    "DFA class list has more than one wildcard class"
                );
                wildcard_class = Some(c);
            }
        }
    }
    keyed.sort_unstable_by_key(|&(k, _)| k);
    for w in keyed.windows(2) {
        assert!(
            w[0].0 < w[1].0,
            "DFA class list has duplicate key {:?}",
            w[0].0
        );
    }
    let wildcard = wildcard_class.is_some();
    let num_classes = keyed.len() + usize::from(wildcard);
    let mut table = vec![DEAD; n * num_classes];
    for q in 0..n {
        let row = q * num_classes;
        for (j, &(_, orig)) in keyed.iter().enumerate() {
            if let Some(r) = dfa.next(q, orig) {
                table[row + j] = r as u32;
            }
        }
        if let Some(orig) = wildcard_class {
            if let Some(r) = dfa.next(q, orig) {
                table[row + keyed.len()] = r as u32;
            }
        }
    }
    let mut accept = vec![0u64; n.div_ceil(64)];
    for q in 0..n {
        if dfa.is_accepting(q) {
            accept[q / 64] |= 1u64 << (q % 64);
        }
    }
    CompiledDfa {
        keys: keyed.into_iter().map(|(k, _)| k).collect(),
        wildcard,
        table,
        accept,
        start: dfa.start() as u32,
        num_states: n as u32,
        num_classes: num_classes as u32,
    }
}

impl<K: Ord + Copy> CompiledDfa<K> {
    /// Number of states.
    pub fn num_states(&self) -> u32 {
        self.num_states
    }

    /// Number of alphabet classes (keyed classes plus the wildcard, if
    /// present).
    pub fn num_classes(&self) -> u32 {
        self.num_classes
    }

    /// The start state.
    pub fn start(&self) -> u32 {
        self.start
    }

    /// The sorted keys of the keyed classes (class `i` matches `keys[i]`).
    pub fn keys(&self) -> &[K] {
        &self.keys
    }

    /// Whether a residual wildcard class is present (always the last class
    /// index, `keys().len()`).
    pub fn has_wildcard(&self) -> bool {
        self.wildcard
    }

    /// Whether state `q` accepts (one bitset load).
    #[inline]
    pub fn is_accepting(&self, q: u32) -> bool {
        self.accept[(q / 64) as usize] & (1u64 << (q % 64)) != 0
    }

    /// The class index a symbol with key `k` belongs to: its keyed class
    /// if one matches, else the wildcard class, else `None` (the symbol is
    /// rejected from every state).
    #[inline]
    pub fn class_of(&self, k: K) -> Option<u32> {
        match self.keys.binary_search(&k) {
            Ok(i) => Some(i as u32),
            Err(_) if self.wildcard => Some(self.keys.len() as u32),
            Err(_) => None,
        }
    }

    /// One transition: the target of `q` on class `c`, or [`DEAD`]. This
    /// is the single table load the compiled tier exists for.
    #[inline]
    pub fn step(&self, q: u32, c: u32) -> u32 {
        self.table[(q * self.num_classes + c) as usize]
    }

    /// Membership simulation: runs the word given by its symbol keys (see
    /// [`CompileAtom::sym_key`]) through the table — one binary search and
    /// one load per symbol.
    pub fn accepts<I: IntoIterator<Item = K>>(&self, word: I) -> bool {
        let mut q = self.start;
        for k in word {
            let Some(c) = self.class_of(k) else {
                return false;
            };
            q = self.step(q, c);
            if q == DEAD {
                return false;
            }
        }
        self.is_accepting(q)
    }

    /// Whether the language is empty: BFS over the table from the start
    /// state looking for an accepting state.
    pub fn is_empty(&self) -> bool {
        let mut seen = vec![false; self.num_states as usize];
        let mut queue = VecDeque::new();
        seen[self.start as usize] = true;
        queue.push_back(self.start);
        while let Some(q) = queue.pop_front() {
            if self.is_accepting(q) {
                return false;
            }
            for c in 0..self.num_classes {
                let r = self.step(q, c);
                if r != DEAD && !seen[r as usize] {
                    seen[r as usize] = true;
                    queue.push_back(r);
                }
            }
        }
        true
    }

    /// Raw accept-bitset words (one bit per state), for serialization.
    pub fn accept_words(&self) -> &[u64] {
        &self.accept
    }

    /// Raw row-major transition table, for serialization.
    pub fn table(&self) -> &[u32] {
        &self.table
    }

    /// Rebuilds a compiled table from raw parts, enforcing — in release
    /// builds too — every invariant [`compile`] asserts, and returning
    /// `None` instead of panicking on violation. This is the decode path
    /// for untrusted snapshot payloads.
    pub fn from_parts_checked(
        keys: Vec<K>,
        wildcard: bool,
        table: Vec<u32>,
        accept: Vec<u64>,
        start: u32,
        num_states: u32,
        num_classes: u32,
    ) -> Option<CompiledDfa<K>> {
        if num_states == 0 || num_states as u64 >= DEAD as u64 || start >= num_states {
            return None;
        }
        if num_classes as usize != keys.len() + usize::from(wildcard) {
            return None;
        }
        if keys.windows(2).any(|w| w[0] >= w[1]) {
            return None;
        }
        let cells = (num_states as usize).checked_mul(num_classes as usize)?;
        if table.len() != cells || accept.len() != (num_states as usize).div_ceil(64) {
            return None;
        }
        if table.iter().any(|&t| t != DEAD && t >= num_states) {
            return None;
        }
        Some(CompiledDfa {
            keys,
            wildcard,
            table,
            accept,
            start,
            num_states,
            num_classes,
        })
    }

    /// Estimated resident bytes of this compiled table (keys, transition
    /// table, accept bitset, header).
    pub fn size_bytes(&self) -> usize {
        self.keys.len() * std::mem::size_of::<K>()
            + self.table.len() * std::mem::size_of::<u32>()
            + self.accept.len() * std::mem::size_of::<u64>()
            + std::mem::size_of::<Self>()
    }
}

/// The joint alphabet classes of two compiled DFAs, from the left side's
/// point of view: every class on which `a` can move at all, paired with
/// the class `b` maps the same symbols to (`None` when `b` has no class
/// for them, i.e. `b` rejects them outright).
///
/// Two DFAs compiled independently partition the alphabet differently;
/// the joint partition is the coarsest common refinement: one class per
/// key either side mentions, plus one residue class ("no key either side
/// knows") iff `a` has a wildcard. Public because the differential tests
/// drive the generic interpreter over exactly this enumeration.
pub fn joint_classes_left<K: Ord + Copy>(
    a: &CompiledDfa<K>,
    b: &CompiledDfa<K>,
) -> Vec<(u32, Option<u32>)> {
    let mut out = Vec::with_capacity(a.keys.len() + b.keys.len() + 1);
    // a's keyed classes: a moves on class i; b maps the key itself.
    for (i, k) in a.keys.iter().enumerate() {
        out.push((i as u32, b.class_of(*k)));
    }
    if a.wildcard {
        let aw = a.keys.len() as u32;
        // b's keys unknown to a: a falls to its wildcard, b is specific.
        for k in &b.keys {
            if a.keys.binary_search(k).is_err() {
                out.push((aw, b.class_of(*k)));
            }
        }
        // The residue: keys neither side mentions.
        out.push((aw, b.wildcard.then_some(b.keys.len() as u32)));
    }
    out
}

/// The joint classes on which *both* sides can move — the transition
/// alphabet of the pair product (intersection) automaton.
pub fn intersection_classes<K: Ord + Copy>(
    a: &CompiledDfa<K>,
    b: &CompiledDfa<K>,
) -> Vec<(u32, u32)> {
    joint_classes_left(a, b)
        .into_iter()
        .filter_map(|(ca, cb)| cb.map(|cb| (ca, cb)))
        .collect()
}

/// A packed-u64 seen-set for product states: dense bitset when the product
/// is small enough, open-addressed hash set beyond that (so a huge product
/// costs memory proportional to what the BFS actually visits, exactly like
/// the interpreter's `HashSet`, and the budget's retained-byte trips stay
/// honest).
enum PairSeen {
    Dense(Vec<u64>),
    Sparse(U64Set),
}

/// Products up to this many states use the dense bitset (128 KiB).
const DENSE_BITS_MAX: u64 = 1 << 20;

impl PairSeen {
    fn new(total: u64) -> PairSeen {
        if total <= DENSE_BITS_MAX {
            PairSeen::Dense(vec![0u64; (total.div_ceil(64)) as usize])
        } else {
            PairSeen::Sparse(U64Set::new())
        }
    }

    /// Inserts `s`; returns `true` if it was new.
    fn insert(&mut self, s: u64) -> bool {
        match self {
            PairSeen::Dense(bits) => {
                let (w, m) = ((s / 64) as usize, 1u64 << (s % 64));
                let new = bits[w] & m == 0;
                bits[w] |= m;
                new
            }
            PairSeen::Sparse(set) => set.insert(s),
        }
    }

    fn retained_bytes(&self) -> usize {
        match self {
            PairSeen::Dense(bits) => bits.len() * 8,
            PairSeen::Sparse(set) => set.retained_bytes(),
        }
    }
}

/// A minimal open-addressed set of `u64` keys (linear probing, power-of-
/// two capacity, 7/8 load factor). Zero is reserved as the empty slot, so
/// keys are stored with a +1 bias (packed product states fit: the packing
/// never reaches `u64::MAX`).
struct U64Set {
    slots: Vec<u64>,
    len: usize,
}

impl U64Set {
    fn new() -> U64Set {
        U64Set {
            slots: vec![0; 64],
            len: 0,
        }
    }

    #[inline]
    fn mix(x: u64) -> u64 {
        // splitmix64 finalizer: cheap, well-distributed for packed states.
        let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn insert(&mut self, key: u64) -> bool {
        if (self.len + 1) * 8 > self.slots.len() * 7 {
            self.grow();
        }
        let stored = key + 1;
        let mask = self.slots.len() - 1;
        let mut i = (Self::mix(stored) as usize) & mask;
        loop {
            let slot = self.slots[i];
            if slot == 0 {
                self.slots[i] = stored;
                self.len += 1;
                return true;
            }
            if slot == stored {
                return false;
            }
            i = (i + 1) & mask;
        }
    }

    fn grow(&mut self) {
        let doubled = vec![0; self.slots.len() * 2];
        let old = std::mem::replace(&mut self.slots, doubled);
        let mask = self.slots.len() - 1;
        for stored in old {
            if stored != 0 {
                let mut i = (Self::mix(stored) as usize) & mask;
                while self.slots[i] != 0 {
                    i = (i + 1) & mask;
                }
                self.slots[i] = stored;
            }
        }
    }

    fn retained_bytes(&self) -> usize {
        self.slots.len() * 8 + std::mem::size_of::<Self>()
    }
}

/// Whether `lang(a) ∩ lang(b)` is empty, by the fused pair-product BFS.
pub fn is_empty_product_compiled<K: Ord + Copy>(a: &CompiledDfa<K>, b: &CompiledDfa<K>) -> bool {
    is_empty_product_compiled_b(a, b, ssd_obs::noop(), Budget::unlimited_ref())
        .expect("unlimited budget never trips")
}

/// [`is_empty_product_compiled`] under a [`Budget`], with instrumentation.
///
/// Meters under the same `product_bfs` engine name and with the same tick
/// cadence as the generic [`crate::ops::is_empty_product_b`] (one tick per
/// start state, one per generated live successor), so a fuel trip happens
/// at exactly the same explored-state count and `Exhausted` diagnostics
/// agree between engines.
pub fn is_empty_product_compiled_b<K: Ord + Copy>(
    a: &CompiledDfa<K>,
    b: &CompiledDfa<K>,
    rec: &dyn Recorder,
    budget: &Budget,
) -> BudgetResult<bool> {
    let _span = ssd_obs::span(rec, names::span::PRODUCT_BFS);
    let mut meter = budget.meter("product_bfs");
    let joint = intersection_classes(a, b);
    let n2 = b.num_states as u64;
    let mut seen = PairSeen::new(a.num_states as u64 * n2);
    let mut queue: VecDeque<u64> = VecDeque::new();
    let mut explored: u64 = 0;
    let mut steps: u64 = 0;
    let result = (|| {
        let start = a.start as u64 * n2 + b.start as u64;
        explored += 1;
        meter.tick()?;
        if a.is_accepting(a.start) && b.is_accepting(b.start) {
            return Ok(false);
        }
        seen.insert(start);
        queue.push_back(start);
        while let Some(s) = queue.pop_front() {
            meter.set_frontier(queue.len());
            meter.set_retained(seen.retained_bytes() + queue.len() * 8);
            let (q1, q2) = ((s / n2) as u32, (s % n2) as u32);
            for &(ca, cb) in &joint {
                steps += 2;
                let r1 = a.step(q1, ca);
                if r1 == DEAD {
                    continue;
                }
                let r2 = b.step(q2, cb);
                if r2 == DEAD {
                    continue;
                }
                explored += 1;
                meter.tick()?;
                if a.is_accepting(r1) && b.is_accepting(r2) {
                    return Ok(false);
                }
                let t = r1 as u64 * n2 + r2 as u64;
                if seen.insert(t) {
                    queue.push_back(t);
                }
            }
        }
        Ok(true)
    })();
    if rec.enabled() {
        rec.add(names::counter::PRODUCT_STATES_EXPLORED, explored);
        rec.observe(names::counter::PRODUCT_STATES_EXPLORED, explored);
        rec.add(names::counter::COMPILED_STEPS, steps);
    }
    result
}

/// Whether `lang(a) ⊆ lang(b)`, by emptiness of `A × ¬B` with `B`
/// completed on the fly: the `B` side runs over `0..=n2` where `n2` is a
/// virtual absorbing dead state (entered when `b` has no class or no
/// transition for a symbol `a` consumed), and a product state accepts —
/// i.e. witnesses non-inclusion — when `a` accepts and the `B` side is
/// dead or non-accepting.
pub fn included_compiled<K: Ord + Copy>(a: &CompiledDfa<K>, b: &CompiledDfa<K>) -> bool {
    included_compiled_b(a, b, ssd_obs::noop(), Budget::unlimited_ref())
        .expect("unlimited budget never trips")
}

/// [`included_compiled`] under a [`Budget`], with instrumentation (same
/// `product_bfs` metering discipline as the intersection kernel).
pub fn included_compiled_b<K: Ord + Copy>(
    a: &CompiledDfa<K>,
    b: &CompiledDfa<K>,
    rec: &dyn Recorder,
    budget: &Budget,
) -> BudgetResult<bool> {
    let _span = ssd_obs::span(rec, names::span::PRODUCT_BFS);
    let mut meter = budget.meter("product_bfs");
    let joint = joint_classes_left(a, b);
    let sink = b.num_states;
    let n2 = sink as u64 + 1;
    let accepts_diff =
        |q1: u32, q2: u32| -> bool { a.is_accepting(q1) && (q2 == sink || !b.is_accepting(q2)) };
    let mut seen = PairSeen::new(a.num_states as u64 * n2);
    let mut queue: VecDeque<u64> = VecDeque::new();
    let mut explored: u64 = 0;
    let mut steps: u64 = 0;
    let result = (|| {
        let start = a.start as u64 * n2 + b.start as u64;
        explored += 1;
        meter.tick()?;
        if accepts_diff(a.start, b.start) {
            return Ok(false);
        }
        seen.insert(start);
        queue.push_back(start);
        while let Some(s) = queue.pop_front() {
            meter.set_frontier(queue.len());
            meter.set_retained(seen.retained_bytes() + queue.len() * 8);
            let (q1, q2) = ((s / n2) as u32, (s % n2) as u32);
            for &(ca, cb) in &joint {
                steps += 2;
                let r1 = a.step(q1, ca);
                if r1 == DEAD {
                    // The left side rejects: inclusion trivially holds on
                    // this branch (mirrors `dfa::included`'s skip).
                    continue;
                }
                let r2 = match cb {
                    _ if q2 == sink => sink,
                    None => sink,
                    Some(cb) => {
                        let r = b.step(q2, cb);
                        if r == DEAD {
                            sink
                        } else {
                            r
                        }
                    }
                };
                explored += 1;
                meter.tick()?;
                if accepts_diff(r1, r2) {
                    return Ok(false);
                }
                let t = r1 as u64 * n2 + r2 as u64;
                if seen.insert(t) {
                    queue.push_back(t);
                }
            }
        }
        Ok(true)
    })();
    if rec.enabled() {
        rec.add(names::counter::PRODUCT_STATES_EXPLORED, explored);
        rec.observe(names::counter::PRODUCT_STATES_EXPLORED, explored);
        rec.add(names::counter::COMPILED_STEPS, steps);
    }
    result
}

/// Language equivalence on compiled tables: inclusion both ways.
pub fn equivalent_compiled<K: Ord + Copy>(a: &CompiledDfa<K>, b: &CompiledDfa<K>) -> bool {
    included_compiled(a, b) && included_compiled(b, a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dfa::{determinize, equivalent, included, minimize};
    use crate::glushkov::build;
    use crate::ops::is_empty_lang;
    use crate::syntax::Regex;
    use ssd_base::budget::TripReason;

    fn l(i: u32) -> Regex<LabelAtom> {
        Regex::atom(LabelAtom::Label(LabelId(i)))
    }

    fn compiled_of(re: &Regex<LabelAtom>) -> CompiledDfa<LabelId> {
        compile(&minimize(&determinize(&build(re))))
    }

    #[test]
    fn accepts_matches_interpreted_dfa() {
        let re = Regex::concat(vec![Regex::star(Regex::alt(vec![l(0), l(1)])), l(2)]);
        let dfa = minimize(&determinize(&build(&re)));
        let c = compile(&dfa);
        for word in [
            vec![LabelId(2)],
            vec![LabelId(0), LabelId(1), LabelId(2)],
            vec![LabelId(0)],
            vec![LabelId(2), LabelId(2)],
            vec![],
            vec![LabelId(9), LabelId(2)],
        ] {
            assert_eq!(
                dfa.accepts(&word),
                c.accepts(word.iter().copied()),
                "word {word:?}"
            );
        }
    }

    #[test]
    fn wildcard_class_is_respected() {
        // _*.a : unmentioned labels fall to the wildcard class.
        let re = Regex::concat(vec![Regex::star(Regex::atom(LabelAtom::Any)), l(0)]);
        let c = compiled_of(&re);
        assert!(c.has_wildcard());
        assert!(c.accepts([LabelId(7), LabelId(0)]));
        assert!(c.accepts([LabelId(0)]));
        assert!(!c.accepts([LabelId(7)]));
    }

    #[test]
    fn emptiness_matches_interpreter() {
        assert!(compiled_of(&Regex::Empty).is_empty());
        assert!(!compiled_of(&Regex::Epsilon).is_empty());
        assert!(!compiled_of(&l(0)).is_empty());
        let dead = Regex::Concat(vec![l(0), Regex::Empty]);
        assert_eq!(compiled_of(&dead).is_empty(), is_empty_lang(&build(&dead)));
    }

    #[test]
    fn product_emptiness_matches_materialized_intersection() {
        let cases = [
            // (a|b).c ∩ a.(c|d) non-empty; a ∩ b empty; a* ∩ b+ empty.
            (
                Regex::concat(vec![Regex::alt(vec![l(0), l(1)]), l(2)]),
                Regex::concat(vec![l(0), Regex::alt(vec![l(2), l(3)])]),
            ),
            (l(0), l(1)),
            (Regex::star(l(0)), Regex::plus(l(1))),
            // Wildcards on one or both sides.
            (Regex::star(Regex::atom(LabelAtom::Any)), l(5)),
            (
                Regex::plus(Regex::atom(LabelAtom::Any)),
                Regex::star(Regex::atom(LabelAtom::Any)),
            ),
        ];
        for (r1, r2) in cases {
            let expected = is_empty_lang(&crate::product::intersect(
                &build(&r1),
                &build(&r2),
                LabelAtom::meet,
            ));
            let got = is_empty_product_compiled(&compiled_of(&r1), &compiled_of(&r2));
            assert_eq!(got, expected, "{r1:?} ∩ {r2:?}");
        }
    }

    #[test]
    fn inclusion_matches_interpreter() {
        let pairs = [
            (Regex::plus(l(0)), Regex::star(l(0))),
            (Regex::star(l(0)), Regex::plus(l(0))),
            (
                Regex::concat(vec![l(0), l(1)]),
                Regex::star(Regex::atom(LabelAtom::Any)),
            ),
            (Regex::star(Regex::atom(LabelAtom::Any)), l(0)),
            (Regex::atom(LabelAtom::Any), l(0)),
            (l(0), Regex::atom(LabelAtom::Any)),
        ];
        for (left, right) in pairs {
            let expected = included(&build(&left), &build(&right));
            let got = included_compiled(&compiled_of(&left), &compiled_of(&right));
            assert_eq!(got, expected, "{left:?} ⊆ {right:?}");
            assert_eq!(
                equivalent_compiled(&compiled_of(&left), &compiled_of(&right)),
                equivalent(&build(&left), &build(&right)),
            );
        }
    }

    #[test]
    fn fuel_trips_carry_the_product_bfs_engine() {
        let a = compiled_of(&Regex::star(Regex::alt(vec![l(0), l(1)])));
        let b = compiled_of(&Regex::plus(Regex::alt(vec![l(0), l(2)])));
        let tiny = Budget::unlimited().with_fuel(1);
        let err = is_empty_product_compiled_b(&a, &b, ssd_obs::noop(), &tiny)
            .expect_err("one unit of fuel cannot finish the product");
        assert_eq!(err.engine, "product_bfs");
        assert_eq!(err.reason, TripReason::Fuel);
        // An unlimited retry still answers.
        assert!(!is_empty_product_compiled(&a, &b));
    }

    #[test]
    fn sparse_seen_set_agrees_with_dense() {
        let mut set = U64Set::new();
        let mut dense = std::collections::HashSet::new();
        for i in 0..10_000u64 {
            let k = i.wrapping_mul(0x2545_f491_4f6c_dd1d) % 50_000;
            assert_eq!(set.insert(k), dense.insert(k), "key {k}");
        }
        assert!(set.retained_bytes() >= dense.len() * 8);
    }

    #[test]
    fn size_bytes_counts_the_table() {
        let c = compiled_of(&Regex::star(Regex::alt(vec![l(0), l(1), l(2)])));
        assert!(c.size_bytes() >= c.table.len() * 4);
    }
}
