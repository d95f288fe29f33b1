//! The Glushkov (position) construction: `Regex<A>` → ε-free [`Nfa<A>`].
//!
//! Every atom occurrence in the regex becomes one state; the automaton has
//! exactly `#occurrences + 1` states and no ε-transitions, which keeps all
//! downstream products small. The construction computes the classic
//! `first`, `last`, and `follow` sets by structural recursion.

use crate::nfa::Nfa;
use crate::syntax::Regex;

/// Positions are 1-based (state 0 is the fresh start state).
type Pos = usize;

struct Info {
    nullable: bool,
    first: Vec<Pos>,
    last: Vec<Pos>,
}

fn union(a: &[Pos], b: &[Pos]) -> Vec<Pos> {
    let mut v = a.to_vec();
    for &x in b {
        if !v.contains(&x) {
            v.push(x);
        }
    }
    v
}

/// Builds the Glushkov automaton of `re`.
pub fn build<A: Clone>(re: &Regex<A>) -> Nfa<A> {
    // Linearize: collect atom occurrences in left-to-right order.
    let mut atoms: Vec<A> = Vec::new();
    re.for_each_atom(&mut |a| atoms.push(a.clone()));
    let n = atoms.len();

    let mut follow: Vec<Vec<Pos>> = vec![Vec::new(); n + 1];
    let mut next_pos: Pos = 1;

    fn go<A>(re: &Regex<A>, next_pos: &mut Pos, follow: &mut [Vec<Pos>]) -> Info {
        match re {
            Regex::Empty => Info {
                nullable: false,
                first: vec![],
                last: vec![],
            },
            Regex::Epsilon => Info {
                nullable: true,
                first: vec![],
                last: vec![],
            },
            Regex::Atom(_) => {
                let p = *next_pos;
                *next_pos += 1;
                Info {
                    nullable: false,
                    first: vec![p],
                    last: vec![p],
                }
            }
            Regex::Concat(parts) => {
                let mut acc = Info {
                    nullable: true,
                    first: vec![],
                    last: vec![],
                };
                for part in parts {
                    let i = go(part, next_pos, follow);
                    // follow: every last of acc is followed by every first of i.
                    for &l in &acc.last {
                        for &f in &i.first {
                            if !follow[l].contains(&f) {
                                follow[l].push(f);
                            }
                        }
                    }
                    let first = if acc.nullable {
                        union(&acc.first, &i.first)
                    } else {
                        acc.first
                    };
                    let last = if i.nullable {
                        union(&i.last, &acc.last)
                    } else {
                        i.last
                    };
                    acc = Info {
                        nullable: acc.nullable && i.nullable,
                        first,
                        last,
                    };
                }
                acc
            }
            Regex::Alt(parts) => {
                let mut acc = Info {
                    nullable: false,
                    first: vec![],
                    last: vec![],
                };
                for part in parts {
                    let i = go(part, next_pos, follow);
                    acc = Info {
                        nullable: acc.nullable || i.nullable,
                        first: union(&acc.first, &i.first),
                        last: union(&acc.last, &i.last),
                    };
                }
                acc
            }
            Regex::Star(r) | Regex::Plus(r) => {
                let i = go(r, next_pos, follow);
                // last(r) × first(r) feeds back.
                for &l in &i.last {
                    for &f in &i.first {
                        if !follow[l].contains(&f) {
                            follow[l].push(f);
                        }
                    }
                }
                Info {
                    nullable: i.nullable || matches!(re, Regex::Star(_)),
                    first: i.first,
                    last: i.last,
                }
            }
            Regex::Opt(r) => {
                let i = go(r, next_pos, follow);
                Info {
                    nullable: true,
                    first: i.first,
                    last: i.last,
                }
            }
        }
    }

    let info = go(re, &mut next_pos, &mut follow);
    debug_assert_eq!(next_pos, n + 1, "linearization mismatch");

    let mut nfa = Nfa::with_states(n + 1, 0);
    for &f in &info.first {
        nfa.add_transition(0, atoms[f - 1].clone(), f);
    }
    for (p, follows) in follow.iter().enumerate().take(n + 1).skip(1) {
        for &f in follows {
            nfa.add_transition(p, atoms[f - 1].clone(), f);
        }
    }
    for &l in &info.last {
        nfa.set_accepting(l, true);
    }
    if info.nullable {
        nfa.set_accepting(0, true);
    }
    nfa.debug_validate();
    nfa
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::syntax::LabelAtom;
    use ssd_base::LabelId;

    fn l(i: u32) -> Regex<LabelAtom> {
        Regex::atom(LabelAtom::Label(LabelId(i)))
    }

    fn w(ids: &[u32]) -> Vec<LabelId> {
        ids.iter().map(|&i| LabelId(i)).collect()
    }

    #[test]
    fn atom_automaton() {
        let n = build(&l(0));
        assert_eq!(n.num_states(), 2);
        assert!(n.accepts(&w(&[0])));
        assert!(!n.accepts(&w(&[])));
        assert!(!n.accepts(&w(&[0, 0])));
    }

    #[test]
    fn concat_and_alt() {
        // (a.b)|c
        let re = Regex::alt(vec![Regex::concat(vec![l(0), l(1)]), l(2)]);
        let n = build(&re);
        assert!(n.accepts(&w(&[0, 1])));
        assert!(n.accepts(&w(&[2])));
        assert!(!n.accepts(&w(&[0])));
        assert!(!n.accepts(&w(&[0, 2])));
    }

    #[test]
    fn star_loops() {
        // a*(b)
        let re = Regex::concat(vec![Regex::star(l(0)), l(1)]);
        let n = build(&re);
        assert!(n.accepts(&w(&[1])));
        assert!(n.accepts(&w(&[0, 1])));
        assert!(n.accepts(&w(&[0, 0, 0, 1])));
        assert!(!n.accepts(&w(&[0])));
    }

    #[test]
    fn plus_requires_one() {
        let re = Regex::plus(l(0));
        let n = build(&re);
        assert!(!n.accepts(&w(&[])));
        assert!(n.accepts(&w(&[0])));
        assert!(n.accepts(&w(&[0, 0])));
    }

    #[test]
    fn opt_allows_empty() {
        let re = Regex::opt(l(0));
        let n = build(&re);
        assert!(n.accepts(&w(&[])));
        assert!(n.accepts(&w(&[0])));
        assert!(!n.accepts(&w(&[0, 0])));
    }

    #[test]
    fn nested_stars() {
        // (a|b)* . c
        let re = Regex::concat(vec![Regex::star(Regex::alt(vec![l(0), l(1)])), l(2)]);
        let n = build(&re);
        assert!(n.accepts(&w(&[2])));
        assert!(n.accepts(&w(&[0, 1, 0, 2])));
        assert!(!n.accepts(&w(&[0, 1])));
    }

    #[test]
    fn empty_language_automaton() {
        let n = build(&Regex::<LabelAtom>::Empty);
        assert!(!n.accepts(&w(&[])));
        assert!(!n.accepts(&w(&[0])));
    }

    #[test]
    fn epsilon_automaton() {
        let n = build(&Regex::<LabelAtom>::Epsilon);
        assert!(n.accepts(&w(&[])));
        assert!(!n.accepts(&w(&[0])));
    }

    #[test]
    fn state_count_is_positions_plus_one() {
        let re = Regex::concat(vec![l(0), Regex::star(Regex::alt(vec![l(1), l(2)]))]);
        assert_eq!(build(&re).num_states(), 4);
    }

    #[test]
    fn wildcard_inside_regex() {
        // _* . name (any path ending in `name`)
        let re = Regex::concat(vec![Regex::star(Regex::atom(LabelAtom::Any)), l(9)]);
        let n = build(&re);
        assert!(n.accepts(&w(&[1, 2, 3, 9])));
        assert!(n.accepts(&w(&[9])));
        assert!(!n.accepts(&w(&[9, 1])));
    }
}
