//! Hand-written lexer for the CoSMIC DSL.

use crate::error::DslError;
use crate::span::Span;
use crate::token::{Token, TokenKind};

/// Converts DSL source text into a token stream.
///
/// Comments run from `#` to end of line. Whitespace is insignificant.
///
/// # Examples
///
/// ```
/// use cosmic_dsl::{Lexer, TokenKind};
///
/// # fn main() -> Result<(), cosmic_dsl::DslError> {
/// let tokens = Lexer::new("w[i] = 1;").tokenize()?;
/// assert!(matches!(tokens[0].kind, TokenKind::Ident(_)));
/// assert!(matches!(tokens.last().unwrap().kind, TokenKind::Eof));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Lexer<'src> {
    src: &'src str,
    bytes: &'src [u8],
    pos: usize,
    line: u32,
    column: u32,
}

impl<'src> Lexer<'src> {
    /// Creates a lexer over the given source text.
    pub fn new(src: &'src str) -> Self {
        Lexer { src, bytes: src.as_bytes(), pos: 0, line: 1, column: 1 }
    }

    /// Consumes the lexer, producing the full token stream terminated by
    /// an [`TokenKind::Eof`] token.
    ///
    /// # Errors
    ///
    /// Returns a [`DslError`] if an illegal character or malformed number
    /// is encountered.
    pub fn tokenize(mut self) -> Result<Vec<Token>, DslError> {
        let mut out = Vec::new();
        loop {
            let tok = self.next_token()?;
            let eof = tok.kind == TokenKind::Eof;
            out.push(tok);
            if eof {
                break;
            }
        }
        Ok(out)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.column = 1;
        } else {
            self.column += 1;
        }
        Some(b)
    }

    fn skip_trivia(&mut self) {
        while let Some(b) = self.peek() {
            match b {
                b' ' | b'\t' | b'\r' | b'\n' => {
                    self.bump();
                }
                b'#' => {
                    while let Some(c) = self.peek() {
                        if c == b'\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                _ => break,
            }
        }
    }

    fn span_from(&self, start: usize, line: u32, column: u32) -> Span {
        Span::new(start, self.pos, line, column)
    }

    fn next_token(&mut self) -> Result<Token, DslError> {
        self.skip_trivia();
        let (start, line, column) = (self.pos, self.line, self.column);
        let Some(b) = self.peek() else {
            return Ok(Token::new(TokenKind::Eof, self.span_from(start, line, column)));
        };

        let simple = |kind: TokenKind, lexer: &mut Self| {
            lexer.bump();
            Ok(Token::new(kind, lexer.span_from(start, line, column)))
        };

        match b {
            b'(' => simple(TokenKind::LParen, self),
            b')' => simple(TokenKind::RParen, self),
            b'[' => simple(TokenKind::LBracket, self),
            b']' => simple(TokenKind::RBracket, self),
            b'=' => simple(TokenKind::Assign, self),
            b'+' => simple(TokenKind::Plus, self),
            b'-' => simple(TokenKind::Minus, self),
            b'*' => simple(TokenKind::Star, self),
            b'/' => simple(TokenKind::Slash, self),
            b':' => simple(TokenKind::Colon, self),
            b';' => simple(TokenKind::Semicolon, self),
            b'>' => {
                self.bump();
                if self.peek() == Some(b'=') {
                    self.bump();
                    Ok(Token::new(TokenKind::Ge, self.span_from(start, line, column)))
                } else {
                    Ok(Token::new(TokenKind::Gt, self.span_from(start, line, column)))
                }
            }
            b'<' => {
                self.bump();
                if self.peek() == Some(b'=') {
                    self.bump();
                    Ok(Token::new(TokenKind::Le, self.span_from(start, line, column)))
                } else {
                    Ok(Token::new(TokenKind::Lt, self.span_from(start, line, column)))
                }
            }
            b'0'..=b'9' | b'.' => self.lex_number(start, line, column),
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => Ok(self.lex_word(start, line, column)),
            other => Err(DslError::lex(
                format!("unexpected character `{}`", other as char),
                self.span_from(start, line, column),
            )),
        }
    }

    fn lex_number(&mut self, start: usize, line: u32, column: u32) -> Result<Token, DslError> {
        let mut saw_dot = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => {
                    self.bump();
                }
                b'.' if !saw_dot => {
                    saw_dot = true;
                    self.bump();
                }
                _ => break,
            }
        }
        let text = &self.src[start..self.pos];
        let span = self.span_from(start, line, column);
        let value: f64 =
            text.parse().map_err(|_| DslError::lex(format!("malformed number `{text}`"), span))?;
        Ok(Token::new(TokenKind::Number(value), span))
    }

    fn lex_word(&mut self, start: usize, line: u32, column: u32) -> Token {
        while let Some(b) = self.peek() {
            match b {
                b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'_' => {
                    self.bump();
                }
                _ => break,
            }
        }
        let text = &self.src[start..self.pos];
        let kind = match text {
            "model_input" => TokenKind::ModelInput,
            "model_output" => TokenKind::ModelOutput,
            "model" => TokenKind::Model,
            "gradient" => TokenKind::Gradient,
            "iterator" => TokenKind::Iterator,
            "aggregator" => TokenKind::Aggregator,
            "minibatch" => TokenKind::Minibatch,
            "sum" => TokenKind::Sum,
            "pi" => TokenKind::Pi,
            _ => TokenKind::Ident(text.to_owned()),
        };
        Token::new(kind, self.span_from(start, line, column))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        Lexer::new(src).tokenize().unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_declaration() {
        assert_eq!(
            kinds("model w[n];"),
            vec![
                TokenKind::Model,
                TokenKind::Ident("w".into()),
                TokenKind::LBracket,
                TokenKind::Ident("n".into()),
                TokenKind::RBracket,
                TokenKind::Semicolon,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn lexes_numbers() {
        assert_eq!(
            kinds("3 1.5 0.01"),
            vec![
                TokenKind::Number(3.0),
                TokenKind::Number(1.5),
                TokenKind::Number(0.01),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn lexes_comparison_operators() {
        assert_eq!(
            kinds("> >= < <="),
            vec![TokenKind::Gt, TokenKind::Ge, TokenKind::Lt, TokenKind::Le, TokenKind::Eof]
        );
    }

    #[test]
    fn skips_comments_and_whitespace() {
        assert_eq!(
            kinds("# a comment\n  w # trailing\n"),
            vec![TokenKind::Ident("w".into()), TokenKind::Eof]
        );
    }

    #[test]
    fn keywords_are_not_identifiers() {
        assert_eq!(kinds("sum pi"), vec![TokenKind::Sum, TokenKind::Pi, TokenKind::Eof]);
        // But words containing keywords are identifiers.
        assert_eq!(kinds("summary"), vec![TokenKind::Ident("summary".into()), TokenKind::Eof]);
    }

    #[test]
    fn rejects_illegal_character() {
        let err = Lexer::new("w @ x").tokenize().unwrap_err();
        assert!(err.to_string().contains('@'));
    }

    #[test]
    fn tracks_line_and_column() {
        let toks = Lexer::new("a\n  b").tokenize().unwrap();
        assert_eq!(toks[1].span.line, 2);
        assert_eq!(toks[1].span.column, 3);
    }

    #[test]
    fn number_stops_at_second_dot() {
        // `1.2.3` is two adjacent numbers, not one token; the parser will
        // reject the juxtaposition.
        assert_eq!(
            kinds("1.2.3"),
            vec![TokenKind::Number(1.2), TokenKind::Number(0.3), TokenKind::Eof]
        );
    }
}
