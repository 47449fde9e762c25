//! Source locations for diagnostics.

use std::fmt;

/// A half-open byte range in the source text, with the 1-based line and
/// column of its start for human-readable diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Span {
    /// Byte offset of the first character.
    pub start: usize,
    /// Byte offset one past the last character.
    pub end: usize,
    /// 1-based line of `start`.
    pub line: u32,
    /// 1-based column of `start`.
    pub column: u32,
}

impl Span {
    /// Creates a span covering `start..end` at the given line/column.
    pub fn new(start: usize, end: usize, line: u32, column: u32) -> Self {
        Span { start, end, line, column }
    }

    /// Returns the smallest span covering both `self` and `other`.
    ///
    /// Line/column information is taken from whichever span starts first.
    pub(crate) fn merge(self, other: Span) -> Span {
        let (first, _) = if self.start <= other.start { (self, other) } else { (other, self) };
        Span {
            start: self.start.min(other.start),
            end: self.end.max(other.end),
            line: first.line,
            column: first.column,
        }
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.column)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_takes_earliest_position() {
        let a = Span::new(4, 8, 1, 5);
        let b = Span::new(10, 12, 2, 1);
        let m = a.merge(b);
        assert_eq!(m.start, 4);
        assert_eq!(m.end, 12);
        assert_eq!(m.line, 1);
        assert_eq!(m.column, 5);
        // Merging is symmetric.
        assert_eq!(b.merge(a), m);
    }

    #[test]
    fn display_is_line_column() {
        assert_eq!(Span::new(0, 1, 3, 7).to_string(), "3:7");
    }
}
