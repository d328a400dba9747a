//! Recursive-descent regex parser producing an [`Ast`].

use super::ast::Ast;
use crate::error::{Error, Result};
use crate::symbol::SymbolClass;

/// Hard ceiling on positions created by desugaring counted repetitions;
/// prevents `a{1000}{1000}` style blowups.
pub const DEFAULT_REPEAT_BUDGET: usize = 1 << 16;

/// Parses `pattern` into an [`Ast`].
///
/// # Errors
///
/// Returns [`Error::RegexSyntax`] with a byte offset for malformed input,
/// [`Error::RegexTooLarge`] when counted repetitions expand beyond
/// [`DEFAULT_REPEAT_BUDGET`] positions, or [`Error::NestingTooDeep`]
/// when groups or the tree nest more than 128 levels deep.
///
/// # Examples
///
/// ```
/// use cama_core::regex::parse;
///
/// let ast = parse("[a-c]+x")?;
/// assert_eq!(ast.num_positions(), 2);
/// # Ok::<(), cama_core::Error>(())
/// ```
pub fn parse(pattern: &str) -> Result<Ast> {
    let mut parser = Parser {
        input: pattern.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let (ast, _) = parser.alternation()?;
    if parser.pos != parser.input.len() {
        return Err(parser.error("unexpected trailing input"));
    }
    if ast.num_positions() > DEFAULT_REPEAT_BUDGET {
        return Err(Error::RegexTooLarge {
            limit: DEFAULT_REPEAT_BUDGET,
        });
    }
    Ok(ast)
}

/// Deepest nesting [`parse`] accepts, counted two ways: open groups
/// (the parser recurses per group) and the height of the tree (every
/// consumer of an [`Ast`] — Glushkov construction, position counting,
/// drop — recurses per level; each quantifier, concatenation and
/// alternation adds one). At this depth the whole of
/// [`compile`](super::compile) fits a thread with Rust's default 2 MiB
/// stack with room to spare (on x86-64, unoptimized builds overflow it
/// near 390 nested groups, optimized builds near 2 000).
const MAX_NESTING: usize = 128;

struct Parser<'a> {
    input: &'a [u8],
    pos: usize,
    /// Groups currently open.
    depth: usize,
}

/// `height` raised by `levels`, refused past [`MAX_NESTING`].
fn deeper(height: usize, levels: usize) -> Result<usize> {
    let height = height + levels;
    if height > MAX_NESTING {
        return Err(Error::NestingTooDeep { limit: MAX_NESTING });
    }
    Ok(height)
}

impl Parser<'_> {
    fn error(&self, message: &str) -> Error {
        Error::RegexSyntax {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn eat(&mut self, expected: u8) -> bool {
        if self.peek() == Some(expected) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// Each parse step returns its tree with an upper bound on the
    /// tree's height (leaves are 0).
    fn alternation(&mut self) -> Result<(Ast, usize)> {
        let (mut ast, mut height) = self.concatenation()?;
        let mut branches = 1;
        while self.eat(b'|') {
            let (rhs, rhs_height) = self.concatenation()?;
            ast = Ast::alternate(ast, rhs);
            height = height.max(rhs_height);
            branches += 1;
        }
        if branches > 1 {
            height = deeper(height, 1)?;
        }
        Ok((ast, height))
    }

    fn concatenation(&mut self) -> Result<(Ast, usize)> {
        let mut ast = Ast::Empty;
        let mut height = 0;
        let mut atoms = 0;
        while let Some(b) = self.peek() {
            if b == b'|' || b == b')' {
                break;
            }
            let (atom, atom_height) = self.repetition()?;
            ast = Ast::concat(ast, atom);
            height = height.max(atom_height);
            atoms += 1;
        }
        if atoms > 1 {
            height = deeper(height, 1)?;
        }
        Ok((ast, height))
    }

    fn repetition(&mut self) -> Result<(Ast, usize)> {
        let (mut ast, mut height) = match self.peek() {
            Some(b'(') => self.group()?,
            _ => (self.atom()?, 0),
        };
        loop {
            match self.peek() {
                Some(b'*') => {
                    self.pos += 1;
                    ast = Ast::Star(Box::new(ast));
                    height = deeper(height, 1)?;
                }
                Some(b'+') => {
                    self.pos += 1;
                    ast = Ast::Plus(Box::new(ast));
                    height = deeper(height, 1)?;
                }
                Some(b'?') => {
                    self.pos += 1;
                    ast = Ast::Optional(Box::new(ast));
                    height = deeper(height, 1)?;
                }
                Some(b'{') => {
                    self.pos += 1;
                    let (min, max) = self.counted_bounds()?;
                    // A concatenation of copies, the last possibly
                    // wrapped in `+` or `?`: two levels.
                    height = deeper(height, 2)?;
                    ast = desugar_repeat(ast, min, max, self.pos)?;
                }
                _ => break,
            }
        }
        Ok((ast, height))
    }

    fn counted_bounds(&mut self) -> Result<(u32, Option<u32>)> {
        let min = self.number()?;
        let max = if self.eat(b',') {
            if self.peek() == Some(b'}') {
                None
            } else {
                Some(self.number()?)
            }
        } else {
            Some(min)
        };
        if !self.eat(b'}') {
            return Err(self.error("expected `}` to close counted repetition"));
        }
        if let Some(max) = max {
            if max < min {
                return Err(self.error("counted repetition has max < min"));
            }
        }
        Ok((min, max))
    }

    fn number(&mut self) -> Result<u32> {
        let start = self.pos;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.error("expected a number"));
        }
        std::str::from_utf8(&self.input[start..self.pos])
            .expect("digits are ascii")
            .parse()
            .map_err(|_| self.error("repetition count overflows"))
    }

    /// A parenthesized group, refused past [`MAX_NESTING`] open groups.
    fn group(&mut self) -> Result<(Ast, usize)> {
        if self.depth == MAX_NESTING {
            return Err(Error::NestingTooDeep { limit: MAX_NESTING });
        }
        self.pos += 1;
        self.depth += 1;
        let inner = self.alternation()?;
        self.depth -= 1;
        if !self.eat(b')') {
            return Err(self.error("expected `)`"));
        }
        Ok(inner)
    }

    /// A leaf; groups are parsed by [`group`](Self::group).
    fn atom(&mut self) -> Result<Ast> {
        match self.bump() {
            Some(b'[') => self.class().map(Ast::Class),
            Some(b'.') => Ok(Ast::Class(SymbolClass::FULL)),
            Some(b'\\') => self.escape().map(Ast::Class),
            Some(b'*') | Some(b'+') | Some(b'?') | Some(b'{') => {
                self.pos -= 1;
                Err(self.error("quantifier with nothing to repeat"))
            }
            Some(b')') => {
                self.pos -= 1;
                Err(self.error("unmatched `)`"))
            }
            Some(b'^') | Some(b'$') => {
                // Anchors are handled by compile options (start-of-data
                // start states); inline anchors are not supported.
                self.pos -= 1;
                Err(self.error("inline anchors are not supported; use CompileOptions::anchored"))
            }
            Some(literal) => Ok(Ast::Class(SymbolClass::singleton(literal))),
            None => Err(self.error("unexpected end of pattern")),
        }
    }

    fn escape(&mut self) -> Result<SymbolClass> {
        match self.bump() {
            Some(b'n') => Ok(SymbolClass::singleton(b'\n')),
            Some(b'r') => Ok(SymbolClass::singleton(b'\r')),
            Some(b't') => Ok(SymbolClass::singleton(b'\t')),
            Some(b'0') => Ok(SymbolClass::singleton(0)),
            Some(b'd') => Ok(class_digit()),
            Some(b'D') => Ok(!class_digit()),
            Some(b'w') => Ok(class_word()),
            Some(b'W') => Ok(!class_word()),
            Some(b's') => Ok(class_space()),
            Some(b'S') => Ok(!class_space()),
            Some(b'x') => {
                let hi = self.hex_digit()?;
                let lo = self.hex_digit()?;
                Ok(SymbolClass::singleton(hi * 16 + lo))
            }
            Some(punct) => Ok(SymbolClass::singleton(punct)),
            None => Err(self.error("dangling escape at end of pattern")),
        }
    }

    fn hex_digit(&mut self) -> Result<u8> {
        match self.bump() {
            Some(b) if b.is_ascii_digit() => Ok(b - b'0'),
            Some(b) if (b'a'..=b'f').contains(&b) => Ok(b - b'a' + 10),
            Some(b) if (b'A'..=b'F').contains(&b) => Ok(b - b'A' + 10),
            _ => Err(self.error("expected a hex digit after \\x")),
        }
    }

    /// Parses the interior of `[...]`; the opening bracket is consumed.
    fn class(&mut self) -> Result<SymbolClass> {
        let negated = self.eat(b'^');
        let mut class = SymbolClass::EMPTY;
        let mut first = true;
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated character class")),
                Some(b']') if !first => {
                    self.pos += 1;
                    break;
                }
                _ => {}
            }
            first = false;
            let lo = self.class_member()?;
            // A range needs a single symbol on the left and a `-` that is
            // not the closing member.
            if self.peek() == Some(b'-')
                && self.input.get(self.pos + 1).copied() != Some(b']')
                && self.input.get(self.pos + 1).is_some()
            {
                if let ClassMember::Symbol(start) = lo {
                    self.pos += 1; // consume '-'
                    match self.class_member()? {
                        ClassMember::Symbol(end) => {
                            if end < start {
                                return Err(self.error("character range is out of order"));
                            }
                            class.extend(start..=end);
                            continue;
                        }
                        ClassMember::Set(_) => {
                            return Err(self.error("class escape cannot close a range"))
                        }
                    }
                }
            }
            match lo {
                ClassMember::Symbol(s) => class.insert(s),
                ClassMember::Set(set) => class = class | set,
            }
        }
        Ok(if negated { !class } else { class })
    }

    fn class_member(&mut self) -> Result<ClassMember> {
        match self.bump() {
            Some(b'\\') => {
                let start = self.pos;
                let set = self.escape()?;
                // Single-symbol escapes can participate in ranges.
                let was_class_escape = matches!(
                    self.input.get(start),
                    Some(b'd' | b'D' | b'w' | b'W' | b's' | b'S')
                );
                if set.len() == 1 && !was_class_escape {
                    Ok(ClassMember::Symbol(set.min_symbol().expect("len is 1")))
                } else {
                    Ok(ClassMember::Set(set))
                }
            }
            Some(b) => Ok(ClassMember::Symbol(b)),
            None => Err(self.error("unterminated character class")),
        }
    }
}

enum ClassMember {
    Symbol(u8),
    Set(SymbolClass),
}

fn class_digit() -> SymbolClass {
    SymbolClass::from_range(b'0', b'9')
}

fn class_word() -> SymbolClass {
    let mut class = class_digit();
    class.extend(b'a'..=b'z');
    class.extend(b'A'..=b'Z');
    class.insert(b'_');
    class
}

fn class_space() -> SymbolClass {
    [b' ', b'\t', b'\n', b'\r', 0x0b, 0x0c]
        .into_iter()
        .collect()
}

fn desugar_repeat(ast: Ast, min: u32, max: Option<u32>, offset: usize) -> Result<Ast> {
    let unit = ast.num_positions().max(1);
    let copies = max.unwrap_or(min.max(1)) as usize;
    if unit.saturating_mul(copies) > DEFAULT_REPEAT_BUDGET {
        return Err(Error::RegexTooLarge {
            limit: DEFAULT_REPEAT_BUDGET,
        });
    }
    let _ = offset;
    let mut result = Ast::Empty;
    for _ in 0..min {
        result = Ast::concat(result, ast.clone());
    }
    match max {
        None => {
            // {m,}: m-1 copies then one Plus (or a Star when m == 0).
            if min == 0 {
                result = Ast::Star(Box::new(ast));
            } else {
                result = match result {
                    Ast::Concat(mut children) => {
                        let last = children.pop().expect("min >= 1");
                        let plus = Ast::Plus(Box::new(last));
                        children
                            .into_iter()
                            .fold(Ast::Empty, Ast::concat)
                            .pipe_concat(plus)
                    }
                    single => Ast::Plus(Box::new(single)),
                };
            }
        }
        Some(max) => {
            for _ in min..max {
                result = Ast::concat(result, Ast::Optional(Box::new(ast.clone())));
            }
        }
    }
    Ok(result)
}

trait PipeConcat {
    fn pipe_concat(self, rhs: Ast) -> Ast;
}

impl PipeConcat for Ast {
    fn pipe_concat(self, rhs: Ast) -> Ast {
        Ast::concat(self, rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(c: u8) -> Ast {
        Ast::Class(SymbolClass::singleton(c))
    }

    #[test]
    fn literals_and_concat() {
        assert_eq!(
            parse("ab").unwrap(),
            Ast::Concat(vec![lit(b'a'), lit(b'b')])
        );
        assert_eq!(parse("a").unwrap(), lit(b'a'));
    }

    #[test]
    fn alternation_and_groups() {
        let ast = parse("(a|b)c").unwrap();
        assert_eq!(
            ast,
            Ast::Concat(vec![Ast::Alternate(vec![lit(b'a'), lit(b'b')]), lit(b'c')])
        );
    }

    #[test]
    fn quantifiers() {
        assert_eq!(parse("a*").unwrap(), Ast::Star(Box::new(lit(b'a'))));
        assert_eq!(parse("a+").unwrap(), Ast::Plus(Box::new(lit(b'a'))));
        assert_eq!(parse("a?").unwrap(), Ast::Optional(Box::new(lit(b'a'))));
    }

    #[test]
    fn counted_repetition_exact() {
        let ast = parse("a{3}").unwrap();
        assert_eq!(ast.num_positions(), 3);
        assert!(!ast.is_nullable());
    }

    #[test]
    fn counted_repetition_range() {
        let ast = parse("a{2,4}").unwrap();
        assert_eq!(ast.num_positions(), 4);
        let ast = parse("(ab){1,2}").unwrap();
        assert_eq!(ast.num_positions(), 4);
    }

    #[test]
    fn counted_repetition_open() {
        let ast = parse("a{2,}").unwrap();
        assert_eq!(ast.num_positions(), 2);
        assert!(matches!(ast, Ast::Concat(_)));
        let ast = parse("a{0,}").unwrap();
        assert!(matches!(ast, Ast::Star(_)));
    }

    #[test]
    fn classes_and_ranges() {
        let ast = parse("[a-c]").unwrap();
        match ast {
            Ast::Class(class) => {
                assert_eq!(class.len(), 3);
                assert!(class.contains(b'b'));
            }
            _ => panic!("expected class"),
        }
    }

    #[test]
    fn negated_class() {
        match parse("[^a]").unwrap() {
            Ast::Class(class) => {
                assert_eq!(class.len(), 255);
                assert!(!class.contains(b'a'));
            }
            _ => panic!("expected class"),
        }
    }

    #[test]
    fn class_with_escapes_and_specials() {
        match parse(r"[\]\-x]").unwrap() {
            Ast::Class(class) => {
                assert!(class.contains(b']'));
                assert!(class.contains(b'-'));
                assert!(class.contains(b'x'));
                assert_eq!(class.len(), 3);
            }
            _ => panic!("expected class"),
        }
        // ']' first in class is a literal member.
        match parse("[]a]").unwrap() {
            Ast::Class(class) => {
                assert!(class.contains(b']'));
                assert!(class.contains(b'a'));
            }
            _ => panic!("expected class"),
        }
    }

    #[test]
    fn class_escape_sets() {
        match parse(r"[\d_]").unwrap() {
            Ast::Class(class) => {
                assert_eq!(class.len(), 11);
                assert!(class.contains(b'_'));
            }
            _ => panic!("expected class"),
        }
    }

    #[test]
    fn dot_and_hex_escape() {
        assert_eq!(parse(".").unwrap(), Ast::Class(SymbolClass::FULL));
        assert_eq!(parse(r"\x41").unwrap(), lit(b'A'));
        assert_eq!(parse(r"\xff").unwrap(), lit(0xff));
    }

    #[test]
    fn trailing_dash_is_literal() {
        match parse("[a-]").unwrap() {
            Ast::Class(class) => {
                assert!(class.contains(b'a'));
                assert!(class.contains(b'-'));
            }
            _ => panic!("expected class"),
        }
    }

    #[test]
    fn syntax_errors() {
        assert!(parse("(a").is_err());
        assert!(parse("a)").is_err());
        assert!(parse("*a").is_err());
        assert!(parse("[a").is_err());
        assert!(parse("a{2,1}").is_err());
        assert!(parse(r"\").is_err());
        assert!(parse("a{x}").is_err());
        assert!(parse("^a").is_err());
        assert!(parse("[z-a]").is_err());
        assert!(parse(r"[a-\d]").is_err());
    }

    #[test]
    fn repeat_budget_enforced() {
        assert!(matches!(
            parse("a{70000}"),
            Err(Error::RegexTooLarge { .. })
        ));
        assert!(matches!(
            parse("(a{300}){300}"),
            Err(Error::RegexTooLarge { .. })
        ));
    }

    #[test]
    fn nested_quantifier_applies() {
        let ast = parse("a*?").unwrap();
        assert!(ast.is_nullable());
    }

    #[test]
    fn nesting_is_limited_not_fatal() {
        fn groups(depth: usize, close: &str) -> String {
            format!("{}a{}", "(".repeat(depth), close.repeat(depth))
        }
        let compile = |pattern: String| crate::regex::compile(&pattern).map(drop);
        let results = crate::on_default_stack(move || {
            [
                // At the limit: bare groups, groups whose every level
                // also adds a tree level, and a quantifier stack.
                compile(groups(MAX_NESTING, ")")),
                compile(groups(MAX_NESTING, ")+")),
                compile(format!("a{}", "+".repeat(MAX_NESTING))),
                // One past it, each way.
                compile(groups(MAX_NESTING + 1, ")")),
                compile(format!("a{}", "+".repeat(MAX_NESTING + 1))),
                compile(groups(100_000, ")")),
                compile(format!("a{}", "+".repeat(100_000))),
            ]
        });
        let too_deep = Err(Error::NestingTooDeep { limit: MAX_NESTING });
        for (i, result) in results[..3].iter().enumerate() {
            assert_eq!(*result, Ok(()), "shape {i} at the limit");
        }
        for (i, result) in results[3..].iter().enumerate() {
            assert_eq!(*result, too_deep, "shape {i} past the limit");
        }
    }
}
