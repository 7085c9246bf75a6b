//! A text syntax for Datalog¬ programs.
//!
//! ```text
//! % transitive closure, then its complement
//! T(x, y) :- E(x, y).
//! T(x, z) :- T(x, y), E(y, z).
//! O(x, y) :- Adom(x), Adom(y), not T(x, y), x != y.
//! ```
//!
//! Lexical conventions:
//! * atoms are `Name(t1, ..., tk)`; the relation name is any identifier;
//! * inside argument lists, bare identifiers are **variables**, numbers are
//!   integer constants, `"quoted"` strings are string constants, and `*` is
//!   the ILOG¬ invention symbol;
//! * negation is written `not A` or `!A`; inequalities `t != u`;
//! * the rule arrow is `:-` or `<-`; rules end with `.`;
//! * `%` and `//` start line comments.
//!
//! An optional header `@output R1, R2.` designates output relations
//! (default: `O` if present, else all idb relations).

use crate::ast::{Atom, Rule, Term};
use crate::program::{Program, ProgramError};
use calm_common::value::Value;
use std::fmt;

/// Parse errors with position information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset in the source.
    pub offset: usize,
    /// Human-readable message.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Errors from [`parse_program`]: either a syntax error or a program
/// well-formedness violation.
#[derive(Debug)]
pub enum ParseProgramError {
    /// Syntax error.
    Parse(ParseError),
    /// Well-formedness violation (unsafe variable, arity conflict, ...).
    Program(ProgramError),
}

impl fmt::Display for ParseProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseProgramError::Parse(e) => write!(f, "{e}"),
            ParseProgramError::Program(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ParseProgramError {}

impl From<ParseError> for ParseProgramError {
    fn from(e: ParseError) -> Self {
        ParseProgramError::Parse(e)
    }
}

impl From<ProgramError> for ParseProgramError {
    fn from(e: ProgramError) -> Self {
        ParseProgramError::Program(e)
    }
}

/// Parse a Datalog¬ program (invention symbol rejected).
pub fn parse_program(src: &str) -> Result<Program, ParseProgramError> {
    let (rules, outputs) = parse_rules(src)?;
    let p = match outputs {
        Some(outs) => Program::with_outputs(rules, outs)?,
        None => Program::new(rules)?,
    };
    Ok(p)
}

/// Parse an ILOG¬ program (invention symbol `*` allowed in heads).
pub fn parse_ilog_program(src: &str) -> Result<Program, ParseProgramError> {
    let (rules, outputs) = parse_rules(src)?;
    let p = Program::new_ilog(rules)?;
    if let Some(outs) = outputs {
        // Rebuild with explicit outputs while keeping ILOG validation.
        let rules = p.rules().to_vec();
        let p = Program::new_ilog(rules)?;
        // Program::new_ilog does not take outputs; emulate by filtering.
        // We re-validate output names here.
        let idb = p.idb();
        for o in &outs {
            if !idb.contains(o) {
                return Err(ProgramError::OutputNotIdb(o.clone()).into());
            }
        }
        return Ok(crate::program::Program::replace_outputs(p, outs));
    }
    Ok(p)
}

/// Parse a set of ground facts (`E(1,2). V("a"). ...`) into an instance.
/// Variables are not allowed — every term must be a constant; a bare
/// identifier is a string constant (`E(alice, bob).`).
pub fn parse_facts(src: &str) -> Result<calm_common::instance::Instance, ParseError> {
    let mut out = calm_common::instance::Instance::new();
    // Facts of one relation come in runs: one `Arc<str>` per run. (No
    // identifier is empty, so the first fact always starts one.)
    let mut relation = calm_common::fact::rel("");
    scan_facts(src, |name, terms| {
        if &*relation != name {
            relation = calm_common::fact::rel(name);
        }
        out.insert_tuple(&relation, terms.iter().map(|t| t.to_value()).collect());
    })?;
    Ok(out)
}

/// A ground term as [`scan_facts`] hands it to its sink, borrowed from
/// the source text. Bare identifiers and quoted strings are both
/// strings.
#[derive(Debug, Clone, Copy)]
pub(crate) enum GroundTerm<'a> {
    Int(i64),
    Str(&'a str),
}

impl GroundTerm<'_> {
    pub(crate) fn to_value(self) -> Value {
        match self {
            GroundTerm::Int(i) => Value::Int(i),
            GroundTerm::Str(s) => Value::str(s),
        }
    }
}

/// The facts grammar: scan `src` once and hand every fact to `sink` as
/// its relation name and its ground terms, both borrowed from `src`
/// (the terms only for the duration of the call). Returns the number of
/// facts handed over. [`parse_facts`] is this scanner with an
/// `Instance` sink, `Database::read_facts` with one that interns
/// straight into storage; there is no other implementation of the
/// grammar.
///
/// Allocates one term buffer, as long as the widest fact: nothing in
/// the input is read as a length.
pub(crate) fn scan_facts<'a>(
    src: &'a str,
    mut sink: impl FnMut(&'a str, &[GroundTerm<'a>]),
) -> Result<usize, ParseError> {
    let mut s = FactScanner { src, pos: 0 };
    let mut terms = Vec::new();
    let mut facts = 0;
    loop {
        s.skip_ws();
        if s.pos >= src.len() {
            return Ok(facts);
        }
        terms.clear();
        let relation = s.fact(&mut terms)?;
        sink(relation, &terms);
        facts += 1;
    }
}

/// [`scan_facts`]' cursor. The lexical classes are [`Parser`]'s — the
/// Unicode definitions of whitespace and identifier characters — read
/// without decoding when the byte at hand is ASCII.
///
/// `fact` and what it calls per term are `#[inline(always)]`: behind a
/// call the cursor lives in memory and every byte stepped over is a
/// store and a load (the scan of 160 000 facts: 9.7 ms with `#[inline]`,
/// 7.7 ms flattened into [`scan_facts`]).
struct FactScanner<'a> {
    src: &'a str,
    pos: usize,
}

impl<'a> FactScanner<'a> {
    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError {
            offset: self.pos,
            message: msg.into(),
        }
    }

    #[inline]
    fn peek(&self) -> Option<char> {
        let b = *self.src.as_bytes().get(self.pos)?;
        if b.is_ascii() {
            Some(char::from(b))
        } else {
            // `pos` only ever advances by whole characters.
            self.src[self.pos..].chars().next()
        }
    }

    /// Advance over characters while `class` holds.
    #[inline]
    fn skip_while(&mut self, class: impl Fn(char) -> bool) {
        while let Some(c) = self.peek().filter(|&c| class(c)) {
            self.pos += c.len_utf8();
        }
    }

    #[inline(always)]
    fn skip_ws(&mut self) {
        let bytes = self.src.as_bytes();
        // The cursor in a local: a loop over `self.pos` goes through
        // memory once per byte.
        let mut pos = self.pos;
        loop {
            match bytes[pos..] {
                [b' ' | b'\t'..=b'\r', ..] => pos += 1,
                // A comment runs up to, not over, its newline.
                [b'%', ..] | [b'/', b'/', ..] => pos = line_end(bytes, pos),
                [b, ..] if !b.is_ascii() => match self.src[pos..].chars().next() {
                    Some(c) if c.is_whitespace() => pos += c.len_utf8(),
                    _ => break,
                },
                _ => break,
            }
        }
        self.pos = pos;
    }

    #[inline]
    fn expect(&mut self, c: char) -> Result<(), ParseError> {
        if self.peek() == Some(c) {
            self.pos += c.len_utf8();
            Ok(())
        } else {
            Err(self.err(format!("expected '{c}'")))
        }
    }

    #[inline(always)]
    fn ident(&mut self) -> Result<&'a str, ParseError> {
        let start = self.pos;
        match self.peek() {
            Some(c) if c.is_alphabetic() || c == '_' => self.pos += c.len_utf8(),
            _ => return Err(self.err("expected identifier")),
        }
        self.skip_while(|c| c.is_alphanumeric() || c == '_' || c == '\'');
        Ok(&self.src[start..self.pos])
    }

    /// An integer starting at the cursor, which is at a `-` or an ASCII
    /// digit: `-`? digit*, a byte at a time. One to eighteen digits fit
    /// an `i64` whatever they are; anything else — a longer literal, a
    /// bare `-` — is `str::parse`'s to accept or refuse, as all of them
    /// used to be.
    #[inline(always)]
    fn int(&mut self) -> Result<i64, ParseError> {
        let bytes = self.src.as_bytes();
        let start = self.pos;
        let digits = start + usize::from(bytes[start] == b'-');
        let (mut pos, mut magnitude) = (digits, 0i64);
        while let Some(d) = bytes.get(pos).filter(|b| b.is_ascii_digit()) {
            magnitude = magnitude.wrapping_mul(10).wrapping_add(i64::from(d - b'0'));
            pos += 1;
        }
        self.pos = pos;
        if (1..=18).contains(&(pos - digits)) {
            return Ok(if digits > start {
                -magnitude
            } else {
                magnitude
            });
        }
        let text = &self.src[start..pos];
        text.parse()
            .map_err(|_| self.err(format!("invalid integer '{text}'")))
    }

    /// One fact `R(t1, ..., tk).` starting at the cursor: its terms are
    /// pushed onto `terms`, its relation name returned.
    #[inline(always)]
    fn fact(&mut self, terms: &mut Vec<GroundTerm<'a>>) -> Result<&'a str, ParseError> {
        let relation = self.ident()?;
        self.skip_ws();
        self.expect('(')?;
        // Where the first `*` stood: reported once the fact has scanned,
        // so a syntax error further on in it is still the one named.
        let mut invention = None;
        loop {
            self.skip_ws();
            let start = self.pos;
            match self.peek() {
                Some('*') => {
                    self.pos += 1;
                    invention.get_or_insert(start);
                }
                Some('"') => {
                    let rest = &self.src[start + 1..];
                    let len = rest.find('"').unwrap_or(rest.len());
                    self.pos = start + 1 + len;
                    self.expect('"')?;
                    terms.push(GroundTerm::Str(&rest[..len]));
                }
                Some(c) if c.is_ascii_digit() || c == '-' => {
                    terms.push(GroundTerm::Int(self.int()?));
                }
                Some(c) if c.is_alphabetic() || c == '_' => {
                    terms.push(GroundTerm::Str(self.ident()?));
                }
                _ => return Err(self.err("expected a term")),
            }
            self.skip_ws();
            if self.peek() == Some(',') {
                self.pos += 1;
                continue;
            }
            self.expect(')')?;
            break;
        }
        self.skip_ws();
        self.expect('.')?;
        match invention {
            Some(offset) => Err(ParseError {
                offset,
                message: "facts must be ground; found the invention symbol".into(),
            }),
            None => Ok(relation),
        }
    }
}

/// Where the line that `pos` is on ends: at its newline, or at the end
/// of `bytes`. Out of line, to keep [`FactScanner::skip_ws`] — inlined
/// six times into a fact — a handful of compares.
#[cold]
fn line_end(bytes: &[u8], pos: usize) -> usize {
    pos + bytes[pos..]
        .iter()
        .position(|&b| b == b'\n')
        .unwrap_or(bytes.len() - pos)
}

/// Parse a sequence of signed update batches for incremental
/// maintenance (`calm eval --updates`).
///
/// Line syntax:
/// * `+ E(1,2).` — insert the fact into the batch;
/// * `- E(2,3).` — delete it;
/// * a line of three or more dashes (`---`) closes the current batch;
/// * `%` / `//` comments and blank lines are skipped.
///
/// Facts follow [`parse_facts`] conventions (ground, bare identifiers
/// are string constants). A trailing unterminated batch is kept; empty
/// batches produced by consecutive separators are preserved (they are
/// legal no-op updates). Errors carry the 1-based line number.
pub fn parse_updates(src: &str) -> Result<Vec<calm_common::update::UpdateBatch>, String> {
    use calm_common::update::UpdateBatch;
    let mut batches = Vec::new();
    let mut cur = UpdateBatch::default();
    for (i, raw) in src.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('%') || line.starts_with("//") {
            continue;
        }
        if line.len() >= 3 && line.chars().all(|c| c == '-') {
            batches.push(std::mem::take(&mut cur));
            continue;
        }
        // Split on the first `char`, not the first byte: the line may
        // start with any UTF-8 sequence.
        let mut chars = line.chars();
        let sign = match chars.next() {
            Some('+') => true,
            Some('-') => false,
            _ => {
                return Err(format!(
                    "line {}: expected `+ Fact.`, `- Fact.` or `---`, got: {line}",
                    i + 1
                ))
            }
        };
        let rest = chars.as_str();
        let facts = parse_facts(rest.trim()).map_err(|e| format!("line {}: {e}", i + 1))?;
        for f in facts {
            if sign {
                cur.insert.push(f);
            } else {
                cur.delete.push(f);
            }
        }
    }
    if !cur.is_empty() {
        batches.push(cur);
    }
    Ok(batches)
}

/// Parse a single rule (must end with `.`).
pub fn parse_rule(src: &str) -> Result<Rule, ParseError> {
    let mut p = Parser::new(src);
    let r = p.rule()?;
    p.skip_ws();
    if !p.at_end() {
        return Err(p.err("trailing input after rule"));
    }
    Ok(r)
}

fn parse_rules(src: &str) -> Result<(Vec<Rule>, Option<Vec<String>>), ParseError> {
    let mut p = Parser::new(src);
    let mut rules = Vec::new();
    let mut outputs: Option<Vec<String>> = None;
    loop {
        p.skip_ws();
        if p.at_end() {
            break;
        }
        if p.eat_str("@output") {
            let mut outs = Vec::new();
            loop {
                p.skip_ws();
                outs.push(p.ident()?);
                p.skip_ws();
                if p.eat(',') {
                    continue;
                }
                p.expect('.')?;
                break;
            }
            outputs = Some(outs);
            continue;
        }
        rules.push(p.rule()?);
    }
    Ok((rules, outputs))
}

struct Parser<'a> {
    src: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Self {
        Parser { src, pos: 0 }
    }

    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError {
            offset: self.pos,
            message: msg.into(),
        }
    }

    fn rest(&self) -> &'a str {
        &self.src[self.pos..]
    }

    fn at_end(&self) -> bool {
        self.pos >= self.src.len()
    }

    fn peek(&self) -> Option<char> {
        self.rest().chars().next()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += c.len_utf8();
        Some(c)
    }

    fn skip_ws(&mut self) {
        loop {
            let before = self.pos;
            while self.peek().is_some_and(char::is_whitespace) {
                self.bump();
            }
            if self.rest().starts_with('%') || self.rest().starts_with("//") {
                while self.peek().is_some_and(|c| c != '\n') {
                    self.bump();
                }
            }
            if self.pos == before {
                break;
            }
        }
    }

    fn eat(&mut self, c: char) -> bool {
        if self.peek() == Some(c) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn eat_str(&mut self, s: &str) -> bool {
        if self.rest().starts_with(s) {
            self.pos += s.len();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, c: char) -> Result<(), ParseError> {
        if self.eat(c) {
            Ok(())
        } else {
            Err(self.err(format!("expected '{c}'")))
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        let start = self.pos;
        match self.peek() {
            Some(c) if c.is_alphabetic() || c == '_' => {
                self.bump();
            }
            _ => return Err(self.err("expected identifier")),
        }
        while self
            .peek()
            .is_some_and(|c| c.is_alphanumeric() || c == '_' || c == '\'')
        {
            self.bump();
        }
        Ok(self.src[start..self.pos].to_string())
    }

    fn term(&mut self) -> Result<Term, ParseError> {
        self.skip_ws();
        match self.peek() {
            Some('*') => {
                self.bump();
                Ok(Term::Invention)
            }
            Some('"') => {
                self.bump();
                let start = self.pos;
                while self.peek().is_some_and(|c| c != '"') {
                    self.bump();
                }
                let s = self.src[start..self.pos].to_string();
                self.expect('"')?;
                Ok(Term::Const(Value::str(s)))
            }
            Some(c) if c.is_ascii_digit() || c == '-' => {
                let start = self.pos;
                self.bump();
                while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                    self.bump();
                }
                let text = &self.src[start..self.pos];
                let n: i64 = text
                    .parse()
                    .map_err(|_| self.err(format!("invalid integer '{text}'")))?;
                Ok(Term::Const(Value::Int(n)))
            }
            Some(c) if c.is_alphabetic() || c == '_' => {
                let name = self.ident()?;
                Ok(Term::var(name))
            }
            _ => Err(self.err("expected a term")),
        }
    }

    fn atom(&mut self) -> Result<Atom, ParseError> {
        self.skip_ws();
        let name = self.ident()?;
        self.skip_ws();
        self.expect('(')?;
        let mut terms = Vec::new();
        loop {
            terms.push(self.term()?);
            self.skip_ws();
            if self.eat(',') {
                continue;
            }
            self.expect(')')?;
            break;
        }
        Ok(Atom::new(name, terms))
    }

    fn rule(&mut self) -> Result<Rule, ParseError> {
        self.skip_ws();
        let head = self.atom()?;
        self.skip_ws();
        if !(self.eat_str(":-") || self.eat_str("<-")) {
            return Err(self.err("expected ':-' or '<-'"));
        }
        let mut pos = Vec::new();
        let mut neg = Vec::new();
        let mut ineq = Vec::new();
        loop {
            self.skip_ws();
            if self.eat_str("not ") || self.eat_str("not\t") {
                neg.push(self.atom()?);
            } else if self.peek() == Some('!') && !self.rest().starts_with("!=") {
                self.bump();
                neg.push(self.atom()?);
            } else {
                // Could be an atom or an inequality `t != u`.
                let save = self.pos;
                // Try: term != term
                if let Ok(left) = self.term() {
                    self.skip_ws();
                    if self.eat_str("!=") {
                        let right = self.term()?;
                        ineq.push((left, right));
                    } else {
                        // Not an inequality: rewind and parse an atom.
                        self.pos = save;
                        pos.push(self.atom()?);
                    }
                } else {
                    self.pos = save;
                    pos.push(self.atom()?);
                }
            }
            self.skip_ws();
            if self.eat(',') {
                continue;
            }
            self.expect('.')?;
            break;
        }
        Ok(Rule {
            head,
            pos,
            neg,
            ineq,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Term;
    use crate::eval::Database;
    use calm_common::fact::{fact, Fact};
    use calm_common::instance::Instance;
    use calm_common::schema::Schema;
    use calm_common::update::UpdateBatch;
    use calm_obs::Obs;

    #[test]
    fn parses_transitive_closure() {
        let p = parse_program(
            "T(x,y) :- E(x,y).\n\
             T(x,z) :- T(x,y), E(y,z).",
        )
        .unwrap();
        assert_eq!(p.rules().len(), 2);
        assert!(p.is_positive());
        assert_eq!(p.idb().arity("T"), Some(2));
        assert_eq!(p.edb().arity("E"), Some(2));
    }

    #[test]
    fn parses_negation_and_inequality() {
        let p = parse_program(
            "O(x,y) :- Adom(x), Adom(y), not T(x,y), x != y.\n\
             T(x,y) :- E(x,y).\n\
             Adom(x) :- E(x,y).\n\
             Adom(y) :- E(x,y).",
        )
        .unwrap();
        let rule = &p.rules()[0];
        assert_eq!(rule.neg.len(), 1);
        assert_eq!(rule.ineq.len(), 1);
        assert_eq!(rule.pos.len(), 2);
    }

    #[test]
    fn bang_negation() {
        let p = parse_program("O(x) :- V(x), !W(x).").unwrap();
        assert_eq!(p.rules()[0].neg.len(), 1);
    }

    #[test]
    fn comments_and_whitespace() {
        let p = parse_program(
            "% a comment\n\
             // another\n\
             T(x , y) :- E(x,y) . % trailing\n",
        )
        .unwrap();
        assert_eq!(p.rules().len(), 1);
    }

    #[test]
    fn constants_parse() {
        let r = parse_rule("O(x) :- R(x, 3, \"abc\", -7).").unwrap();
        let terms = &r.pos[0].terms;
        assert_eq!(terms[1], Term::cst(3));
        assert_eq!(terms[2], Term::cst("abc"));
        assert_eq!(terms[3], Term::cst(-7));
    }

    #[test]
    fn output_directive() {
        let p = parse_program(
            "@output T.\n\
             T(x,y) :- E(x,y).\n\
             S(x) :- E(x,x).",
        )
        .unwrap();
        assert_eq!(p.outputs().len(), 1);
        assert!(p.outputs().iter().any(|o| o.as_ref() == "T"));
    }

    #[test]
    fn invention_symbol_rejected_in_plain_datalog() {
        let err = parse_program("R(*, x) :- E(x, x).");
        assert!(err.is_err());
        // But accepted by the ILOG entry point.
        let ok = parse_ilog_program("R(*, x) :- E(x, x).");
        assert!(ok.is_ok());
    }

    #[test]
    fn arrow_variants() {
        let a = parse_rule("T(x) :- V(x).").unwrap();
        let b = parse_rule("T(x) <- V(x).").unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn error_positions() {
        let e = parse_program("T(x) :- V(x)").unwrap_err();
        match e {
            ParseProgramError::Parse(pe) => assert!(pe.message.contains("'.'")),
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn unsafe_rule_reported_as_program_error() {
        let e = parse_program("T(x, y) :- V(x).").unwrap_err();
        assert!(matches!(e, ParseProgramError::Program(_)));
    }

    #[test]
    fn round_trip_display_reparse() {
        let src = "O(x,y) :- E(x,y), not T(y,x), x != y.";
        let r1 = parse_rule(src).unwrap();
        let r2 = parse_rule(&r1.to_string()).unwrap();
        assert_eq!(r1, r2);
    }

    #[test]
    fn parse_facts_ground_instances() {
        let i = parse_facts("E(1, 2). E(2, 3).\n% comment\nV(\"x\"). Person(alice).").unwrap();
        assert_eq!(i.len(), 4);
        assert!(i.contains(&calm_common::fact::fact("E", [1, 2])));
        assert!(i.contains_tuple("V", &[calm_common::value::Value::str("x")]));
        assert!(i.contains_tuple("Person", &[calm_common::value::Value::str("alice")]));
    }

    #[test]
    fn parse_facts_rejects_invention_and_rules() {
        assert!(parse_facts("R(*, 1).").is_err());
        assert!(parse_facts("T(x) :- V(x).").is_err());
    }

    /// `parse_facts` as it stood before the scanner — an `Atom`, a
    /// `Vec<Term>`, a `String` per identifier and a `Fact` per fact,
    /// over the rule parser's `Parser::atom` — kept as the grammar's
    /// reference.
    fn parse_facts_reference(src: &str) -> Result<Instance, ParseError> {
        let mut p = Parser::new(src);
        let mut out = Instance::new();
        loop {
            p.skip_ws();
            if p.at_end() {
                return Ok(out);
            }
            let atom = p.atom()?;
            p.skip_ws();
            p.expect('.')?;
            let mut args = Vec::with_capacity(atom.arity());
            for t in &atom.terms {
                match t {
                    Term::Const(c) => args.push(c.clone()),
                    Term::Var(v) => args.push(Value::str(v.name())),
                    Term::Invention => {
                        return Err(p.err("facts must be ground; found the invention symbol"))
                    }
                }
            }
            out.insert(Fact::new(atom.relation.as_ref(), args));
        }
    }

    const INVENTION: &str = "facts must be ground; found the invention symbol";

    /// Scanner into `Instance` ≡ reference, and scanner into `Database`
    /// ≡ both. One move is allowed: the invention error points at the
    /// first `*` of the offending fact, the reference past its `.`.
    fn assert_scanner_is_the_reference(src: &str) -> bool {
        let want = parse_facts_reference(src);
        let got = parse_facts(src);
        match (&want, &got) {
            (Ok(w), Ok(g)) => assert_eq!(w, g, "{src:?}"),
            (Err(w), Err(g)) if w.message == INVENTION => {
                assert_eq!(w.message, g.message, "{src:?}");
                assert!(g.offset < w.offset, "{src:?}: {g} vs {w}");
                assert!(src[g.offset..].starts_with('*'), "{src:?}: {g}");
            }
            (Err(w), Err(g)) => assert_eq!(w, g, "{src:?}"),
            _ => panic!("{src:?}: reference {want:?}, scanner {got:?}"),
        }
        let mut db = Database::new();
        match db.read_facts(src, None, &Obs::noop()) {
            Ok(()) => assert_eq!(Ok(db.to_instance()), got, "{src:?}"),
            Err(e) => assert_eq!(Err(e), got, "{src:?}"),
        }
        // Reading only some relations is reading all, then restricting.
        let only = Schema::from_pairs([("E", 2), ("F", 1)]);
        let mut db = Database::new();
        match db.read_facts(src, Some(&only), &Obs::noop()) {
            Ok(()) => assert_eq!(
                Ok(db.to_instance()),
                got.map(|i| i.restrict(&only)),
                "{src:?}"
            ),
            Err(e) => assert_eq!(Err(e), got, "{src:?}"),
        }
        want.is_ok()
    }

    /// The seed corpus of the facts-grammar fuzz target: the example
    /// data, the fact halves of the example update lines, and one hand
    /// case per branch of the grammar.
    fn facts_corpus() -> Vec<String> {
        let mut corpus: Vec<String> = [
            include_str!("../../../examples/data/graph.facts"),
            include_str!("../../../examples/data/game.facts"),
            "E(\"abc",
            "E(-)",
            "E(--1).",
            "E(1,2)",
            "E(1 2).",
            "E(99999999999999999999,1).",
            "E(-9223372036854775808, 9223372036854775807). E(-0, 007).",
            // One past either end of `i64`; the widest literals read
            // without a check (18 digits) and the narrowest read with
            // one; zeros that make a small number long; 25 digits.
            "E(9223372036854775808).",
            "E(-9223372036854775809).",
            "E(999999999999999999, -999999999999999999, 1000000000000000000).",
            "E(0000000000000000000001, -0000000000000000000002).",
            "E(1234567890123456789012345).",
            "E(-a).",
            "E(1-2).",
            // A fact split at non-ASCII whitespace.
            "E(1,\u{2003}2\u{85})\u{a0}.\u{3000}E\u{2028}(3).",
            "E(*,1).",
            "E(1,*). F(*",
            "E().",
            "E(a'b,1).",
            "\u{c9}(1,2).\u{a0}E(\u{fc},1).",
            "E(1,2). /",
            "% nothing but a comment",
            "// nothing but a comment\n",
            "",
            "E(1). E(1,2). E(\"1\", \"two words\", _x, x_1').\nV % in the middle\n (\"a\") // and after\n .",
            "T(x) :- V(x).",
        ]
        .map(String::from)
        .into();
        for line in include_str!("../../../examples/data/graph.updates").lines() {
            if let Some(fact) = line.strip_prefix(['+', '-']) {
                corpus.push(fact.to_string());
            }
        }
        corpus
    }

    #[test]
    fn scanner_is_the_reference_on_the_corpus() {
        let corpus = facts_corpus();
        let accepted = (corpus.iter())
            .filter(|src| assert_scanner_is_the_reference(src))
            .count();
        assert!(accepted >= 8 && corpus.len() - accepted >= 8, "{accepted}");
        // The rejections read as they always did.
        let message = |src: &str| parse_facts(src).unwrap_err().to_string();
        assert_eq!(message("E()."), "parse error at byte 2: expected a term");
        assert_eq!(
            message("E(--1)."),
            "parse error at byte 3: invalid integer '-'"
        );
        assert_eq!(
            message("E(99999999999999999999,1)."),
            "parse error at byte 22: invalid integer '99999999999999999999'"
        );
        assert_eq!(
            message("E(9223372036854775808)."),
            "parse error at byte 21: invalid integer '9223372036854775808'"
        );
        assert_eq!(
            message("E(1, -9223372036854775809)."),
            "parse error at byte 25: invalid integer '-9223372036854775809'"
        );
        assert_eq!(
            message("E(1234567890123456789012345)."),
            "parse error at byte 27: invalid integer '1234567890123456789012345'"
        );
        assert_eq!(
            message("E(-a)."),
            "parse error at byte 3: invalid integer '-'"
        );
        assert_eq!(message("E(1-2)."), "parse error at byte 3: expected ')'");
        let edges =
            "E(-9223372036854775808, 9223372036854775807, -0, 007, 0000000000000000000001).";
        let edges = parse_facts(edges).unwrap();
        assert!(edges.contains(&fact("E", [i64::MIN, i64::MAX, 0, 7, 1])));
        assert_eq!(message("E(\"abc"), "parse error at byte 6: expected '\"'");
        assert_eq!(message("E(1 2)."), "parse error at byte 4: expected ')'");
        assert_eq!(message("E(1,2)"), "parse error at byte 6: expected '.'");
        assert_eq!(
            message("E(1,2). /"),
            "parse error at byte 8: expected identifier"
        );
        assert_eq!(
            message("E(1,*). F(*"),
            format!("parse error at byte 4: {INVENTION}")
        );
    }

    /// One member of `corpus` after one to three seeded byte-level edits
    /// — a byte of `alphabet` inserted, a byte deleted, a bit flipped, a
    /// run of another member spliced in — re-validated as UTF-8.
    fn mutated<S: AsRef<str>>(
        rng: &mut calm_common::rng::Rng,
        corpus: &[S],
        alphabet: &[u8],
    ) -> String {
        let mut bytes = rng.choose(corpus).unwrap().as_ref().as_bytes().to_vec();
        for _ in 0..rng.gen_range(1..=3usize) {
            let at = rng.gen_range(0..=bytes.len());
            match rng.gen_range(0..4u32) {
                0 => bytes.insert(at, *rng.choose(alphabet).unwrap()),
                1 if at < bytes.len() => drop(bytes.remove(at)),
                2 if at < bytes.len() => bytes[at] ^= 1 << rng.gen_range(0..8u32),
                _ => {
                    let other = rng.choose(corpus).unwrap().as_ref().as_bytes();
                    let from = rng.gen_range(0..=other.len());
                    let to = rng.gen_range(from..=other.len());
                    bytes.splice(at..at, other[from..to].iter().copied());
                }
            }
        }
        String::from_utf8_lossy(&bytes).into_owned()
    }

    /// The first of the parser fuzz targets (ROADMAP item 5): seeded
    /// byte-level mutations of the corpus — insert, delete, flip, splice,
    /// bytes ≥ 0x80 included and the result re-validated as UTF-8 —
    /// never panic and never tell the scanner from the reference.
    #[test]
    fn scanner_is_the_reference_on_mutated_bytes() {
        use calm_common::rng::Rng;
        const ALPHABET: &[u8] =
            b"EV_x019-*\"'(),. \t\n%/\xc3\xa9\xc2\xa0\xe2\x86\x92\xf0\x9f\xff\x00";
        let corpus = facts_corpus();
        let mut rng = Rng::seed_from_u64(0x5ca9_fac7);
        let (mut accepted, mut rejected) = (0, 0);
        for _ in 0..24_000 {
            let src = mutated(&mut rng, &corpus, ALPHABET);
            if assert_scanner_is_the_reference(&src) {
                accepted += 1;
            } else {
                rejected += 1;
            }
        }
        assert!(
            accepted > 2_000 && rejected > 2_000,
            "accepted {accepted}, rejected {rejected}"
        );
    }

    /// What either printer writes reads back as the instance printed:
    /// one `Display` line per fact (the `Instance` edge, `calm eval
    /// --from-scratch`) and [`FactPrinter`] (the arena edge, `calm eval`),
    /// on seeded instances whose strings take both spellings — bare
    /// identifiers, and quoted ones: empty, digits, blanks, commas,
    /// brackets, comment starts and a whole fact.
    ///
    /// [`FactPrinter`]: calm_common::storage::FactPrinter
    #[test]
    fn printed_facts_read_back_as_the_instance() {
        use calm_common::rng::Rng;
        use calm_common::storage::{load_instance, FactPrinter, SharedSymbols, Storage};
        use calm_common::Schema;
        const STRINGS: [&str; 16] = [
            "a",
            "_x",
            "x'",
            "\u{e9}t\u{e9}",
            "B2",
            "",
            "5",
            "-1",
            "a b",
            "x,y",
            "(",
            "f(1)",
            "'a",
            "% no",
            "//",
            "E(1).",
        ];
        const NAMES: [&str; 3] = ["U", "B", "T"];
        let schema = Schema::from_pairs([("U", 1), ("B", 2), ("T", 3)]);
        let mut quoted = 0;
        for seed in 0..200u64 {
            let mut rng = Rng::seed_from_u64(seed);
            let mut instance = Instance::new();
            for _ in 0..rng.gen_range(0..30usize) {
                let arity = rng.gen_range(1..=3usize);
                let args = (0..arity)
                    .map(|_| {
                        if rng.gen_bool(0.6) {
                            Value::str(rng.choose(&STRINGS).unwrap())
                        } else {
                            Value::int(rng.gen_range(-3..7i64))
                        }
                    })
                    .collect();
                instance.insert(Fact::new(NAMES[arity - 1], args));
            }
            let displayed: String = instance.facts().map(|f| format!("{f}.\n")).collect();
            assert_eq!(
                parse_facts(&displayed).as_ref(),
                Ok(&instance),
                "{displayed}"
            );
            let symbols = SharedSymbols::new();
            let mut storage = Storage::new();
            load_instance(&instance, &symbols, &mut storage);
            let mut printed = Vec::new();
            FactPrinter::new(symbols)
                .write(&storage, &schema, &mut printed, &Obs::noop())
                .unwrap();
            assert_eq!(
                String::from_utf8(printed).unwrap(),
                displayed,
                "seed {seed}"
            );
            quoted += displayed.matches('"').count() / 2;
        }
        assert!(quoted > 1_000, "{quoted} quoted strings");
    }

    #[test]
    fn parse_facts_empty_input() {
        assert!(parse_facts("  % nothing\n").unwrap().is_empty());
    }

    #[test]
    fn ineq_between_var_and_constant() {
        let r = parse_rule("O(x) :- V(x), x != 3.").unwrap();
        assert_eq!(r.ineq.len(), 1);
        assert_eq!(r.ineq[0].1, Term::cst(3));
    }

    #[test]
    fn parse_updates_batches_and_signs() {
        let src = "% batch one\n+ E(1,2).\n- E(2,3).\n---\n+ V(alice).\n";
        let batches = parse_updates(src).unwrap();
        assert_eq!(batches.len(), 2);
        assert_eq!(
            batches[0].insert,
            vec![calm_common::fact::fact("E", [1, 2])]
        );
        assert_eq!(
            batches[0].delete,
            vec![calm_common::fact::fact("E", [2, 3])]
        );
        assert_eq!(batches[1].delete, vec![]);
        assert!(batches[1].insert[0]
            .args()
            .contains(&calm_common::value::Value::str("alice")));
        // Consecutive separators keep the empty no-op batch.
        assert_eq!(parse_updates("---\n---\n").unwrap().len(), 2);
        assert!(parse_updates("").unwrap().is_empty());
        // Unsigned lines are rejected with a line number.
        let err = parse_updates("+ E(1,2).\nE(3,4).").unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
    }

    #[test]
    fn parse_updates_rejects_a_multibyte_first_character() {
        // Regression: `split_at(1)` panicked with "byte index 1 is not
        // a char boundary".
        let err = parse_updates("+ E(1,2).\né E(1,2).\n").unwrap_err();
        assert!(err.starts_with("line 2: expected `+ Fact.`"), "{err}");
        assert!(parse_updates("→").is_err());
        // A multi-byte character after the sign reaches the fact parser
        // (where an alphabetic one is an identifier).
        assert_eq!(parse_updates("+é(1).").unwrap()[0].insert.len(), 1);
    }

    /// [`parse_updates`] said again, a line at a time over
    /// [`parse_facts`]: what the batches of an accepted file must be.
    fn parse_updates_reference(src: &str) -> Option<Vec<UpdateBatch>> {
        let (mut batches, mut cur) = (Vec::new(), UpdateBatch::default());
        for line in src.lines().map(str::trim) {
            if line.is_empty() || line.starts_with('%') || line.starts_with("//") {
                continue;
            }
            if line.len() >= 3 && line.bytes().all(|b| b == b'-') {
                batches.push(std::mem::take(&mut cur));
                continue;
            }
            let side = match line.chars().next()? {
                '+' => &mut cur.insert,
                '-' => &mut cur.delete,
                _ => return None,
            };
            side.extend(parse_facts(&line[1..]).ok()?);
        }
        if !cur.is_empty() {
            batches.push(cur);
        }
        Some(batches)
    }

    /// The update-file half of the fuzz target: the mutator of
    /// `scanner_is_the_reference_on_mutated_bytes` on a three-batch file
    /// — never a panic, an error names its line, and what is accepted is
    /// what its lines say.
    #[test]
    fn parse_updates_is_its_lines_on_mutated_bytes() {
        use calm_common::rng::Rng;
        const ALPHABET: &[u8] =
            b"+-+-EV_x019*\"'(),. \t\n\n%/\xc3\xa9\xc2\xa0\xe2\x86\x92\xf0\x9f\xff\x00";
        let file = "% three batches\n+ E(3,4). E(4, 5).\n- E(\"a b\", -7).\n---\n\
                    \t- E(2,3).  // gone\n+ V(alice).\n+V(\u{e9}).\n----\n---\n+ E(2,3).\n+ E(4,5).";
        let corpus = [file, include_str!("../../../examples/data/graph.updates")];
        assert_eq!(parse_updates(file).unwrap().len(), 4);
        let mut rng = Rng::seed_from_u64(0x0bad_fac7);
        let (mut accepted, mut rejected) = (0, 0);
        for _ in 0..24_000 {
            let src = mutated(&mut rng, &corpus, ALPHABET);
            match parse_updates(&src) {
                Ok(batches) => {
                    assert_eq!(Some(batches), parse_updates_reference(&src), "{src:?}");
                    accepted += 1;
                }
                Err(e) => {
                    assert!(e.starts_with("line "), "{src:?}: {e}");
                    assert_eq!(parse_updates_reference(&src), None, "{src:?}: {e}");
                    rejected += 1;
                }
            }
        }
        assert!(
            accepted > 2_000 && rejected > 2_000,
            "accepted {accepted}, rejected {rejected}"
        );
    }

    #[test]
    fn parse_updates_never_panics_on_arbitrary_bytes() {
        use calm_common::rng::Rng;
        // Mostly the format's own alphabet, so lines get past the sign
        // check, plus raw bytes that make multi-byte and invalid UTF-8.
        const ALPHABET: &[u8] = b"+-+-%/ \t\n\n.,()EV019ab\"\\\xc3\xa9\xe2\x86\x92\xf0\x9f\xff\x00";
        let mut rng = Rng::seed_from_u64(0xbad_c0de);
        let (mut ok, mut rejected) = (0, 0);
        for _ in 0..4000 {
            let bytes: Vec<u8> = (0..rng.gen_range(0..24usize))
                .map(|_| *rng.choose(ALPHABET).unwrap())
                .collect();
            match parse_updates(&String::from_utf8_lossy(&bytes)) {
                Ok(_) => ok += 1,
                Err(e) => {
                    assert!(e.starts_with("line "), "{e}");
                    rejected += 1;
                }
            }
        }
        assert!(ok > 0 && rejected > 0, "ok {ok}, rejected {rejected}");
    }
}
