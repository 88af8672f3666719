//! Rule `span-balance`: every span opened must be closed or owned.
//!
//! For each `span_begin` call in library code, classify the result:
//!   - bound with `let x = ...` — require, within the enclosing function, a
//!     later `span_end(..., x)` or an ownership escape (x assigned into a
//!     field, passed to a call other than an attribute setter, or
//!     returned);
//!   - assigned without `let` (`rec.span_open = ...span_begin(...)`) — the
//!     id is stored, ownership transferred: fine;
//!   - used inline as a call argument or struct-literal field — ownership
//!     transferred: fine;
//!   - discarded in statement position — the span can never be ended: error.

use crate::lexer::{Tok, TokKind};
use crate::report::{Finding, Report};
use crate::scan::SourceFile;

const RULE: &str = "span-balance";

/// The span attribute setters: passing an id to one of them neither ends
/// the span nor transfers its ownership.
const ATTR_SETTERS: [&str; 3] = ["span_attr", "span_attr_u64", "span_attr_text"];

/// Spans (start..end token indices, exclusive) of every `fn` body.
/// Closures are not `fn`, so they stay inside their function's range.
fn fn_body_ranges(t: &[Tok]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < t.len() {
        if t[i].is("fn") {
            // Find the body `{` of this fn, skipping the signature. A `;`
            // first means a trait method declaration without a body.
            let mut j = i + 1;
            let mut angle = 0i32;
            let mut paren = 0i32;
            while j < t.len() {
                if t[j].is("<") {
                    angle += 1;
                } else if t[j].is(">") {
                    angle -= 1;
                } else if t[j].is("(") {
                    paren += 1;
                } else if t[j].is(")") {
                    paren -= 1;
                } else if angle <= 0 && paren == 0 && (t[j].is("{") || t[j].is(";")) {
                    break;
                }
                j += 1;
            }
            if j < t.len() && t[j].is("{") {
                let mut depth = 0i32;
                let mut k = j;
                while k < t.len() {
                    if t[k].is("{") {
                        depth += 1;
                    } else if t[k].is("}") {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    k += 1;
                }
                out.push((j, k.min(t.len())));
                i += 1;
                continue;
            }
            i = j;
        }
        i += 1;
    }
    out
}

/// Innermost fn body containing token index `i`.
fn enclosing_fn(ranges: &[(usize, usize)], i: usize) -> Option<(usize, usize)> {
    ranges
        .iter()
        .filter(|&&(s, e)| i > s && i < e)
        .min_by_key(|&&(s, e)| e - s)
        .copied()
}

pub fn check(files: &[SourceFile], report: &mut Report) {
    for f in files {
        let t = &f.lexed.toks;
        let ranges = fn_body_ranges(t);
        for i in 0..t.len() {
            if !t[i].is("span_begin") {
                continue;
            }
            // Skip the method definition itself (`fn span_begin`).
            if i >= 1 && t[i - 1].is("fn") {
                continue;
            }
            if t.get(i + 1).is_none_or(|x| !x.is("(")) {
                continue;
            }
            let line = t[i].line;
            if f.is_test_code(line) {
                continue;
            }

            // Statement start: last `;`/`{`/`}` before the call.
            let mut s = i;
            while s > 0 && !(t[s].is(";") || t[s].is("{") || t[s].is("}")) {
                s -= 1;
            }
            let stmt = &t[s..i];

            // Case: inline use — a `(` or `,` or `:` directly drives the
            // call into a larger expression (argument, struct field value).
            // Anything with an `=` is an assignment; handle below.
            let has_eq = stmt.iter().any(|x| x.is("=") && !x.is("=>"));
            let let_pos = stmt.iter().position(|x| x.is("let"));

            if let Some(p) = let_pos {
                // `let NAME = ...span_begin(...)`: trace NAME's later uses.
                let name = stmt[p + 1..]
                    .iter()
                    .find(|x| x.kind == TokKind::Ident && !x.is("mut"))
                    .map(|x| x.text.clone());
                let Some(name) = name else { continue };
                let Some((_, fn_end)) = enclosing_fn(&ranges, i) else {
                    continue;
                };
                // End of the binding statement.
                let mut stmt_end = i;
                let mut depth = 0i32;
                while stmt_end < t.len() {
                    if t[stmt_end].is("(") || t[stmt_end].is("{") || t[stmt_end].is("[") {
                        depth += 1;
                    } else if t[stmt_end].is(")") || t[stmt_end].is("}") || t[stmt_end].is("]") {
                        depth -= 1;
                    } else if depth == 0 && t[stmt_end].is(";") {
                        break;
                    }
                    stmt_end += 1;
                }

                let mut balanced = false;
                let mut escaped = false;
                let mut j = stmt_end;
                while j < fn_end {
                    if t[j].kind == TokKind::Ident && t[j].text == name {
                        // Which context is this use in?
                        // Walk back to see if it's inside span_end(...) or
                        // attribute-setter args.
                        let mut k = j;
                        let mut pdepth = 0i32;
                        let mut callee: Option<&str> = None;
                        while k > stmt_end {
                            if t[k].is(")") {
                                pdepth += 1;
                            } else if t[k].is("(") {
                                if pdepth == 0 {
                                    if k >= 1 && t[k - 1].kind == TokKind::Ident {
                                        callee = Some(t[k - 1].text.as_str());
                                    }
                                    break;
                                }
                                pdepth -= 1;
                            }
                            k -= 1;
                        }
                        match callee {
                            Some("span_end") => balanced = true,
                            Some(c) if ATTR_SETTERS.contains(&c) => {} // doesn't consume
                            Some(_) => escaped = true,
                            None => escaped = true, // assignment / return / tail
                        }
                    }
                    j += 1;
                }
                if !(balanced || escaped) {
                    let finding = Finding::new(
                        RULE,
                        &f.rel,
                        line,
                        format!(
                            "span id `{name}` is opened but never passed to span_end \
                             or stored; the span leaks open in the trace"
                        ),
                    );
                    report.push(if f.is_waived(line, RULE) {
                        finding.waived()
                    } else {
                        finding
                    });
                }
            } else if !has_eq {
                // No let, no assignment: either inline argument/field use
                // (ownership transferred) or a discarded statement.
                // Inline use: somewhere in `stmt` after the start there is
                // an unclosed `(` or a `,`/`:` context — detect by checking
                // the token right before the receiver chain of span_begin.
                // Walk the dotted receiver chain backwards from the `.`
                // before span_begin to find what drives the expression.
                let mut r = i - 1;
                while r > s {
                    let p = &t[r - 1];
                    if p.is(".") || p.kind == TokKind::Ident {
                        r -= 1;
                    } else {
                        break;
                    }
                }
                let before = if r > s { Some(&t[r - 1]) } else { None };
                let inline = matches!(
                    before,
                    Some(tok) if tok.is("(") || tok.is(",") || tok.is(":")
                        || tok.is("return") || tok.is("=>")
                );
                // Tail expression (`...span_begin(...)` right before fn `}`)
                // is a return: ownership transferred to the caller.
                let call_close = {
                    let mut depth = 0i32;
                    let mut k = i + 1;
                    loop {
                        if t[k].is("(") {
                            depth += 1;
                        } else if t[k].is(")") {
                            depth -= 1;
                            if depth == 0 {
                                break k;
                            }
                        }
                        k += 1;
                        if k >= t.len() {
                            break t.len() - 1;
                        }
                    }
                };
                let is_tail = t.get(call_close + 1).is_some_and(|x| x.is("}"));
                if !inline && !is_tail {
                    let finding = Finding::new(
                        RULE,
                        &f.rel,
                        line,
                        "span_begin result discarded; the span can never be ended \
                         and leaks open in the trace",
                    );
                    report.push(if f.is_waived(line, RULE) {
                        finding.waived()
                    } else {
                        finding
                    });
                }
            }
            // `has_eq && no let`: `place = ...span_begin(...)` — stored,
            // ownership transferred. Nothing to check.
        }
    }
}
