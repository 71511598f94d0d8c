//! A small front-end: parse textual loop nests in the paper's notation
//! (§2.1) into [`LoopNest`] values.
//!
//! ```text
//! FOR i1 = 0 TO 9999 DO
//!   FOR i2 = 0 TO 999 DO
//!     A(i1, i2) = A(i1-1, i2-1) + A(i1-1, i2) + A(i1, i2-1)
//!   ENDFOR
//! ENDFOR
//! ```
//!
//! Supported: perfectly nested `FOR v = lo TO hi` headers (constant
//! bounds), one or more assignment statements over arrays with *uniform*
//! accesses (`A(i1-1, i2+2)` — each index position must use the loop
//! variable of that depth plus a constant offset), arithmetic operators
//! and a small set of intrinsic functions (`sqrt`, `sin`, `cos`, `exp`,
//! `abs`, `min`, `max`) on the right-hand side, which are ignored for
//! dependence purposes. Keywords are case-insensitive; `DO` and
//! semicolons are optional.

use crate::loopnest::{Access, ArrayId, LoopNest, LoopNestError, Statement};
use crate::space::IterationSpace;
use std::collections::HashMap;
use std::fmt;

/// Parse errors with (line, column) spans (1-based).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ParseError {
    /// 1-based line.
    pub line: usize,
    /// 1-based starting column.
    pub col: usize,
    /// Span width in columns — the length of the offending token
    /// (1 for single-character tokens and point errors).
    pub len: usize,
    /// What went wrong.
    pub message: String,
}

impl ParseError {
    /// 1-based column one past the end of the span.
    pub fn end_col(&self) -> usize {
        self.col + self.len.max(1)
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.len > 1 {
            write!(
                f,
                "{}:{}-{}: {}",
                self.line,
                self.col,
                self.end_col() - 1,
                self.message
            )
        } else {
            write!(f, "{}:{}: {}", self.line, self.col, self.message)
        }
    }
}

impl std::error::Error for ParseError {}

#[derive(Clone, PartialEq, Eq, Debug)]
enum Tok {
    Ident(String),
    Int(i64),
    Assign,
    Plus,
    Minus,
    Star,
    Slash,
    LParen,
    RParen,
    Comma,
}

#[derive(Clone, Debug)]
struct Spanned {
    tok: Tok,
    line: usize,
    col: usize,
    len: usize,
}

/// A bare (line, col, len) source span, without a token.
#[derive(Clone, Copy, Debug)]
struct Span {
    line: usize,
    col: usize,
    len: usize,
}

fn err_at<T>(span: Span, message: impl Into<String>) -> Result<T, ParseError> {
    err_span(span.line, span.col, span.len, message)
}

fn err<T>(line: usize, col: usize, message: impl Into<String>) -> Result<T, ParseError> {
    err_span(line, col, 1, message)
}

fn err_span<T>(
    line: usize,
    col: usize,
    len: usize,
    message: impl Into<String>,
) -> Result<T, ParseError> {
    Err(ParseError {
        line,
        col,
        len: len.max(1),
        message: message.into(),
    })
}

fn tokenize(src: &str) -> Result<Vec<Spanned>, ParseError> {
    let mut out = Vec::new();
    for (li, raw_line) in src.lines().enumerate() {
        let line = li + 1;
        // Strip comments.
        let code = raw_line.split("//").next().unwrap_or("");
        let bytes: Vec<char> = code.chars().collect();
        let mut i = 0;
        while i < bytes.len() {
            let c = bytes[i];
            let col = i + 1;
            let tok = match c {
                ' ' | '\t' | '\r' | ';' => {
                    i += 1;
                    continue;
                }
                '=' => Tok::Assign,
                '+' => Tok::Plus,
                '-' => Tok::Minus,
                '*' => Tok::Star,
                '/' => Tok::Slash,
                '(' | '[' => Tok::LParen,
                ')' | ']' => Tok::RParen,
                ',' => Tok::Comma,
                '0'..='9' => {
                    let start = i;
                    while i < bytes.len() && bytes[i].is_ascii_digit() {
                        i += 1;
                    }
                    let s: String = bytes[start..i].iter().collect();
                    let v: i64 = s.parse().map_err(|_| ParseError {
                        line,
                        col,
                        len: i - start,
                        message: format!("integer literal out of range: {s}"),
                    })?;
                    out.push(Spanned {
                        tok: Tok::Int(v),
                        line,
                        col,
                        len: i - start,
                    });
                    continue;
                }
                c if c.is_alphabetic() || c == '_' => {
                    let start = i;
                    while i < bytes.len() && (bytes[i].is_alphanumeric() || bytes[i] == '_') {
                        i += 1;
                    }
                    let s: String = bytes[start..i].iter().collect();
                    out.push(Spanned {
                        tok: Tok::Ident(s),
                        line,
                        col,
                        len: i - start,
                    });
                    continue;
                }
                other => return err(line, col, format!("unexpected character {other:?}")),
            };
            out.push(Spanned {
                tok,
                line,
                col,
                len: 1,
            });
            i += 1;
        }
    }
    Ok(out)
}

/// Intrinsic function names ignored on the right-hand side.
const INTRINSICS: &[&str] = &["sqrt", "sin", "cos", "exp", "abs", "min", "max"];

struct Parser {
    toks: Vec<Spanned>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Spanned> {
        self.toks.get(self.pos)
    }

    fn at_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Spanned { tok: Tok::Ident(s), .. }) if s.eq_ignore_ascii_case(kw))
    }

    fn bump(&mut self) -> Option<Spanned> {
        let t = self.toks.get(self.pos).cloned();
        self.pos += 1;
        t
    }

    /// Where "end of input" is: one column past the last token.
    fn eof_pos(&self) -> (usize, usize) {
        self.toks
            .last()
            .map(|s| (s.line, s.col + s.len))
            .unwrap_or((1, 1))
    }

    fn eof_err<T>(&self, message: String) -> Result<T, ParseError> {
        let (line, col) = self.eof_pos();
        err(line, col, message)
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        match self.bump() {
            Some(Spanned {
                tok: Tok::Ident(s), ..
            }) if s.eq_ignore_ascii_case(kw) => Ok(()),
            Some(s) => err_span(
                s.line,
                s.col,
                s.len,
                format!("expected `{kw}`, found {:?}", s.tok),
            ),
            None => self.eof_err(format!("expected `{kw}`, found end of input")),
        }
    }

    fn expect_tok(&mut self, want: Tok, what: &str) -> Result<Spanned, ParseError> {
        match self.bump() {
            Some(s) if s.tok == want => Ok(s),
            Some(s) => err_span(
                s.line,
                s.col,
                s.len,
                format!("expected {what}, found {:?}", s.tok),
            ),
            None => self.eof_err(format!("expected {what}, found end of input")),
        }
    }

    fn expect_ident(&mut self, what: &str) -> Result<(String, Span), ParseError> {
        match self.bump() {
            Some(Spanned {
                tok: Tok::Ident(s),
                line,
                col,
                len,
            }) => Ok((s, Span { line, col, len })),
            Some(s) => err_span(
                s.line,
                s.col,
                s.len,
                format!("expected {what}, found {:?}", s.tok),
            ),
            None => self.eof_err(format!("expected {what}, found end of input")),
        }
    }

    fn expect_int(&mut self, what: &str) -> Result<i64, ParseError> {
        // Allow a leading minus.
        let neg = if matches!(
            self.peek(),
            Some(Spanned {
                tok: Tok::Minus,
                ..
            })
        ) {
            self.bump();
            true
        } else {
            false
        };
        match self.bump() {
            Some(Spanned {
                tok: Tok::Int(v), ..
            }) => Ok(if neg { -v } else { v }),
            Some(s) => err_span(
                s.line,
                s.col,
                s.len,
                format!("expected {what}, found {:?}", s.tok),
            ),
            None => self.eof_err(format!("expected {what}, found end of input")),
        }
    }

    /// Parse one index expression `var (± const)?`; must reference the
    /// loop variable at `depth`.
    fn index_expr(
        &mut self,
        loop_vars: &HashMap<String, usize>,
        depth: usize,
    ) -> Result<i64, ParseError> {
        let (name, span) = self.expect_ident("an index variable")?;
        let Some(&var_depth) = loop_vars.get(&name) else {
            return err_at(span, format!("unknown index variable `{name}`"));
        };
        if var_depth != depth {
            return err_at(
                span,
                format!(
                    "index position {} must use loop variable of that depth (found `{name}`); \
                     non-uniform accesses are outside the paper's model",
                    depth + 1
                ),
            );
        }
        match self.peek().map(|s| s.tok.clone()) {
            Some(Tok::Plus) => {
                self.bump();
                self.expect_int("an offset")
            }
            Some(Tok::Minus) => {
                self.bump();
                Ok(-self.expect_int("an offset")?)
            }
            _ => Ok(0),
        }
    }

    /// Parse an array access `NAME ( idx , idx , … )`.
    fn access(
        &mut self,
        arrays: &mut HashMap<String, ArrayId>,
        loop_vars: &HashMap<String, usize>,
        dims: usize,
    ) -> Result<Access, ParseError> {
        let (name, span) = self.expect_ident("an array name")?;
        let next_id = ArrayId(arrays.len());
        let id = *arrays.entry(name.clone()).or_insert(next_id);
        self.expect_tok(Tok::LParen, "`(`")?;
        let mut offset = Vec::with_capacity(dims);
        for d in 0..dims {
            offset.push(self.index_expr(loop_vars, d)?);
            if d + 1 < dims {
                self.expect_tok(Tok::Comma, "`,`")?;
            }
        }
        let close = self.expect_tok(Tok::RParen, "`)`");
        if close.is_err() {
            return err_at(span, format!("array `{name}`: expected {dims} indices"));
        }
        Ok(Access::new(id, offset))
    }

    /// Parse a right-hand side, collecting read accesses and skipping
    /// operators, literals and intrinsic calls. Stops at a token that
    /// can't continue an expression (e.g. `ENDFOR` or a new statement).
    fn rhs(
        &mut self,
        arrays: &mut HashMap<String, ArrayId>,
        loop_vars: &HashMap<String, usize>,
        dims: usize,
        reads: &mut Vec<Access>,
    ) -> Result<(), ParseError> {
        let mut want_operand = true;
        loop {
            match self.peek().cloned() {
                Some(Spanned {
                    tok: Tok::Ident(s), ..
                }) => {
                    if s.eq_ignore_ascii_case("endfor") || s.eq_ignore_ascii_case("for") {
                        break;
                    }
                    if !want_operand {
                        // Next statement begins (array name followed by
                        // `(...) =`) — leave it to the caller.
                        break;
                    }
                    if INTRINSICS.iter().any(|f| s.eq_ignore_ascii_case(f)) {
                        self.bump();
                        self.expect_tok(Tok::LParen, "`(` after intrinsic")?;
                        self.rhs(arrays, loop_vars, dims, reads)?;
                        self.expect_tok(Tok::RParen, "`)` closing intrinsic")?;
                    } else if loop_vars.contains_key(&s) {
                        // A bare index variable as a value.
                        self.bump();
                    } else {
                        reads.push(self.access(arrays, loop_vars, dims)?);
                    }
                    want_operand = false;
                }
                Some(Spanned {
                    tok: Tok::Int(_), ..
                }) => {
                    self.bump();
                    want_operand = false;
                }
                Some(Spanned {
                    tok: Tok::Plus | Tok::Minus | Tok::Star | Tok::Slash,
                    ..
                }) => {
                    self.bump();
                    want_operand = true;
                }
                Some(Spanned {
                    tok: Tok::LParen, ..
                }) => {
                    self.bump();
                    self.rhs(arrays, loop_vars, dims, reads)?;
                    self.expect_tok(Tok::RParen, "`)`")?;
                    want_operand = false;
                }
                _ => break,
            }
        }
        Ok(())
    }
}

/// Parse a textual loop nest.
pub fn parse_loop_nest(src: &str) -> Result<LoopNest, ParseError> {
    let toks = tokenize(src)?;
    let mut p = Parser { toks, pos: 0 };

    // Loop headers.
    let mut loop_vars: HashMap<String, usize> = HashMap::new();
    let mut lowers = Vec::new();
    let mut uppers = Vec::new();
    while p.at_keyword("for") {
        p.expect_keyword("for")?;
        let (var, span) = p.expect_ident("a loop variable")?;
        if loop_vars.contains_key(&var) {
            return err_at(span, format!("duplicate loop variable `{var}`"));
        }
        loop_vars.insert(var, lowers.len());
        p.expect_tok(Tok::Assign, "`=`")?;
        let lo = p.expect_int("a lower bound")?;
        p.expect_keyword("to")?;
        let hi = p.expect_int("an upper bound")?;
        if p.at_keyword("do") {
            p.bump();
        }
        if lo > hi {
            return err_at(span, format!("empty loop range {lo}..{hi}"));
        }
        if hi.checked_sub(lo).and_then(|e| e.checked_add(1)).is_none() {
            return err_at(
                span,
                format!("loop range {lo}..{hi} has more than 2^63-1 points"),
            );
        }
        lowers.push(lo);
        uppers.push(hi);
    }
    if lowers.is_empty() {
        return err(1, 1, "expected at least one FOR header");
    }
    let dims = lowers.len();

    // Statements.
    let mut arrays: HashMap<String, ArrayId> = HashMap::new();
    let mut statements = Vec::new();
    while !p.at_keyword("endfor") {
        if p.peek().is_none() {
            let (line, col) = p.eof_pos();
            return err(
                line,
                col,
                "unexpected end of input: missing statements/ENDFOR",
            );
        }
        let write = p.access(&mut arrays, &loop_vars, dims)?;
        p.expect_tok(Tok::Assign, "`=`")?;
        let mut reads = Vec::new();
        p.rhs(&mut arrays, &loop_vars, dims, &mut reads)?;
        statements.push(Statement::new(write, reads));
    }
    if statements.is_empty() {
        let (line, col) = p
            .peek()
            .map(|s| (s.line, s.col))
            .unwrap_or_else(|| p.eof_pos());
        return err(line, col, "loop body has no statements");
    }

    // Matching ENDFORs.
    for _ in 0..dims {
        if !p.at_keyword("endfor") {
            let (line, col) = p
                .peek()
                .map(|s| (s.line, s.col))
                .unwrap_or_else(|| p.eof_pos());
            return err(line, col, format!("expected {dims} ENDFORs"));
        }
        p.bump();
    }
    if let Some(s) = p.peek() {
        return err_span(s.line, s.col, s.len, format!("trailing input: {:?}", s.tok));
    }

    let space = IterationSpace::new(lowers, uppers);
    // Semantic errors have no single offending token: span the nest's
    // first line.
    LoopNest::new(space, statements).map_err(|e: LoopNestError| ParseError {
        line: 1,
        col: 1,
        len: 1,
        message: e.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dependence::DependenceSet;

    const EXAMPLE_1: &str = "
        FOR i1 = 0 TO 9999 DO
          FOR i2 = 0 TO 999 DO
            A(i1, i2) = A(i1-1, i2-1) + A(i1-1, i2) + A(i1, i2-1)
          ENDFOR
        ENDFOR";

    #[test]
    fn parses_example_1() {
        let nest = parse_loop_nest(EXAMPLE_1).unwrap();
        assert_eq!(nest, LoopNest::example_1());
        let deps = nest.dependences().unwrap();
        let want: std::collections::BTreeSet<Vec<i64>> = DependenceSet::example_1()
            .iter()
            .map(|d| d.components().to_vec())
            .collect();
        let got: std::collections::BTreeSet<Vec<i64>> =
            deps.iter().map(|d| d.components().to_vec()).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn parses_paper_3d_with_sqrt() {
        let src = "
            for i = 0 to 15
            for j = 0 to 15
            for k = 0 to 16383
              A(i, j, k) = sqrt(A(i-1, j, k)) + sqrt(A(i, j-1, k)) + sqrt(A(i, j, k-1))
            endfor
            endfor
            endfor";
        let nest = parse_loop_nest(src).unwrap();
        assert_eq!(nest, LoopNest::paper_3d(&[16, 16, 16384]));
    }

    #[test]
    fn multiple_statements_and_arrays() {
        let src = "
            FOR i = 0 TO 9 DO
              X(i) = Y(i-2) * 3
              Y(i) = X(i-1) + 1
            ENDFOR";
        let nest = parse_loop_nest(src).unwrap();
        assert_eq!(nest.statements().len(), 2);
        let deps = nest.dependences().unwrap();
        let got: std::collections::BTreeSet<Vec<i64>> =
            deps.iter().map(|d| d.components().to_vec()).collect();
        assert!(got.contains(&vec![1]));
        assert!(got.contains(&vec![2]));
    }

    #[test]
    fn square_brackets_and_semicolons() {
        let src = "
            for i = 0 to 4 do
            for j = 0 to 4 do
              B[i, j] = B[i-1, j] + B[i, j-1];
            endfor
            endfor";
        let nest = parse_loop_nest(src).unwrap();
        let deps = nest.dependences().unwrap();
        assert_eq!(deps.len(), 2);
    }

    #[test]
    fn comments_ignored() {
        let src = "
            FOR i = 0 TO 3 // outer
              A(i) = A(i-1) // flow dep
            ENDFOR";
        assert!(parse_loop_nest(src).is_ok());
    }

    #[test]
    fn negative_bounds() {
        let src = "FOR i = -5 TO 5\n A(i) = A(i-1)\nENDFOR";
        let nest = parse_loop_nest(src).unwrap();
        assert_eq!(nest.space().lower(), &[-5]);
        assert_eq!(nest.space().upper(), &[5]);
    }

    #[test]
    fn bare_index_variable_on_rhs() {
        let src = "FOR i = 0 TO 3\n A(i) = A(i-1) + i * 2\nENDFOR";
        let nest = parse_loop_nest(src).unwrap();
        assert_eq!(nest.dependences().unwrap().len(), 1);
    }

    #[test]
    fn error_unknown_variable() {
        let src = "FOR i = 0 TO 3\n A(q) = 1\nENDFOR";
        let e = parse_loop_nest(src).unwrap_err();
        assert!(e.message.contains("unknown index variable"), "{e}");
        assert_eq!(e.line, 2);
    }

    #[test]
    fn error_non_uniform_access() {
        // j used in i's position.
        let src = "FOR i = 0 TO 3\nFOR j = 0 TO 3\n A(j, i) = 1\nENDFOR\nENDFOR";
        let e = parse_loop_nest(src).unwrap_err();
        assert!(e.message.contains("loop variable of that depth"), "{e}");
    }

    #[test]
    fn error_missing_endfor() {
        let src = "FOR i = 0 TO 3\n A(i) = A(i-1)";
        assert!(parse_loop_nest(src).is_err());
    }

    #[test]
    fn error_empty_range() {
        let src = "FOR i = 5 TO 2\n A(i) = 1\nENDFOR";
        let e = parse_loop_nest(src).unwrap_err();
        assert!(e.message.contains("empty loop range"), "{e}");
    }

    #[test]
    fn error_range_too_long_for_i64() {
        for header in [
            "FOR i = 0 TO 9223372036854775807",
            "FOR i = -9223372036854775807 TO 9223372036854775807",
        ] {
            let src = format!("{header}\nFOR j = 0 TO 7\n A(i, j) = A(i-1, j)\nENDFOR\nENDFOR");
            let e = parse_loop_nest(&src).unwrap_err();
            assert_eq!((e.line, e.col), (1, 5), "{e}");
            assert!(e.message.contains("more than"), "{e}");
        }
    }

    #[test]
    fn error_trailing_tokens() {
        let src = "FOR i = 0 TO 3\n A(i) = A(i-1)\nENDFOR garbage";
        let e = parse_loop_nest(src).unwrap_err();
        assert!(e.message.contains("trailing"), "{e}");
    }

    #[test]
    fn error_forward_dependence_propagates() {
        // The parser succeeds syntactically; dependence extraction fails.
        let src = "FOR i = 0 TO 3\n A(i) = A(i+1)\nENDFOR";
        let nest = parse_loop_nest(src).unwrap();
        assert!(nest.dependences().is_err());
    }

    #[test]
    fn error_duplicate_loop_var() {
        let src = "FOR i = 0 TO 3\nFOR i = 0 TO 3\n A(i, i) = 1\nENDFOR\nENDFOR";
        let e = parse_loop_nest(src).unwrap_err();
        assert!(e.message.contains("duplicate"), "{e}");
    }

    #[test]
    fn error_position_reported() {
        let src = "FOR i = 0 TO 3\n A(i) = @\nENDFOR";
        let e = parse_loop_nest(src).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("unexpected character"));
    }

    #[test]
    fn error_spans_cover_the_token() {
        // `qvar` sits at line 2, columns 4-7.
        let src = "FOR i = 0 TO 3\n A(qvar) = 1\nENDFOR";
        let e = parse_loop_nest(src).unwrap_err();
        assert_eq!((e.line, e.col, e.len), (2, 4, 4));
        assert_eq!(e.end_col(), 8);
        assert_eq!(e.to_string(), "2:4-7: unknown index variable `qvar`");
    }

    #[test]
    fn single_column_spans_display_as_a_point() {
        let src = "FOR i = 0 TO 3\n A(i) = @\nENDFOR";
        let e = parse_loop_nest(src).unwrap_err();
        assert_eq!(e.len, 1);
        assert!(
            e.to_string()
                .starts_with(&format!("{}:{}: ", e.line, e.col)),
            "{e}"
        );
    }

    #[test]
    fn eof_errors_point_past_the_last_token() {
        // Input ends after `A(i-1)` on line 2; the EOF error must
        // anchor there, not at 0:0.
        let src = "FOR i = 0 TO 3\n A(i) = A(i-1)";
        let e = parse_loop_nest(src).unwrap_err();
        assert_eq!(e.line, 2);
        assert_eq!(e.col, 15);
        assert!(e.message.contains("end of input"), "{e}");
    }

    #[test]
    fn duplicate_loop_var_spans_the_variable() {
        let src = "FOR i = 0 TO 3\nFOR i = 0 TO 3\n A(i, i) = 1\nENDFOR\nENDFOR";
        let e = parse_loop_nest(src).unwrap_err();
        assert_eq!((e.line, e.col, e.len), (2, 5, 1));
    }

    #[test]
    fn nested_parens_in_rhs() {
        let src = "FOR i = 0 TO 3\n A(i) = (A(i-1) + 2) * (3 - A(i-2))\nENDFOR";
        let nest = parse_loop_nest(src).unwrap();
        assert_eq!(nest.dependences().unwrap().len(), 2);
    }

    #[test]
    fn end_to_end_parse_tile_schedule() {
        // Parse → dependences → tile → schedule: the full §3 pipeline
        // from text.
        let nest = parse_loop_nest(EXAMPLE_1).unwrap();
        let deps = nest.dependences().unwrap();
        let tiling = crate::tiling::Tiling::rectangular(&[10, 10]);
        assert!(tiling.is_legal(&deps));
        let machine = crate::machine::MachineParams::example_1();
        let strategy = crate::schedule::StepStrategy::Blocking;
        let r = crate::schedule::TileSchedule::with_mapping(strategy, 2, 0).analyze(
            &tiling,
            &deps,
            nest.space(),
            &machine,
            Default::default(),
        );
        assert_eq!(r.schedule_length, 1099);
    }
}
