//! A minimal XML reader/writer.
//!
//! mScopeDataTransformer's middle representation is annotated XML (paper
//! §III-B2): parsers wrap log lines in `<log>`/`<entry>` elements and inject
//! field tags; the XMLtoCSV converter then consumes that XML. The upgraded
//! SAR monitor also emits XML directly. This module implements the subset
//! both sides need — elements, attributes, text, self-closing tags, and the
//! five standard entity escapes — with strict, fail-fast parsing.

use std::fmt;

/// Deepest element nesting [`parse`] accepts. The parser recurses once per
/// open element, so a hostile document must not pick the stack depth; the
/// shipped SAR XML nests 6 levels.
const MAX_DEPTH: usize = 128;

/// An XML element tree node.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct XmlNode {
    /// Element name.
    pub name: String,
    /// Attributes in document order.
    pub attrs: Vec<(String, String)>,
    /// Child elements in document order.
    pub children: Vec<XmlNode>,
    /// Concatenated text content directly inside this element.
    pub text: String,
}

impl XmlNode {
    /// Creates an element with no attributes, children, or text.
    pub fn new(name: impl Into<String>) -> XmlNode {
        XmlNode {
            name: name.into(),
            ..XmlNode::default()
        }
    }

    /// Builder-style: adds an attribute.
    pub fn attr(mut self, name: impl Into<String>, value: impl Into<String>) -> XmlNode {
        self.attrs.push((name.into(), value.into()));
        self
    }

    /// Builder-style: sets text content.
    pub fn with_text(mut self, text: impl Into<String>) -> XmlNode {
        self.text = text.into();
        self
    }

    /// Builder-style: appends a child.
    pub fn child(mut self, child: XmlNode) -> XmlNode {
        self.children.push(child);
        self
    }

    /// Attribute lookup.
    pub fn get_attr(&self, name: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// First child element with the given name.
    pub fn find(&self, name: &str) -> Option<&XmlNode> {
        self.children.iter().find(|c| c.name == name)
    }

    /// All descendant elements (depth-first) with the given name.
    pub fn find_all<'a>(&'a self, name: &'a str) -> Vec<&'a XmlNode> {
        let mut out = Vec::new();
        self.collect_named(name, &mut out);
        out
    }

    fn collect_named<'a>(&'a self, name: &str, out: &mut Vec<&'a XmlNode>) {
        for c in &self.children {
            if c.name == name {
                out.push(c);
            }
            c.collect_named(name, out);
        }
    }

    /// Serializes to a string with 1-space indentation.
    pub fn to_xml(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        let pad = " ".repeat(depth);
        out.push_str(&pad);
        out.push('<');
        out.push_str(&self.name);
        for (n, v) in &self.attrs {
            out.push(' ');
            out.push_str(n);
            out.push_str("=\"");
            out.push_str(&escape(v));
            out.push('"');
        }
        if self.children.is_empty() && self.text.is_empty() {
            out.push_str("/>\n");
            return;
        }
        out.push('>');
        if !self.text.is_empty() {
            out.push_str(&escape(&self.text));
        }
        if !self.children.is_empty() {
            out.push('\n');
            for c in &self.children {
                c.write(out, depth + 1);
            }
            out.push_str(&pad);
        }
        out.push_str("</");
        out.push_str(&self.name);
        out.push_str(">\n");
    }
}

impl fmt::Display for XmlNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_xml())
    }
}

/// Escapes the five standard XML entities.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&apos;"),
            _ => out.push(c),
        }
    }
    out
}

/// Reverses [`escape`].
pub fn unescape(s: &str) -> Result<String, XmlError> {
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(pos) = rest.find('&') {
        out.push_str(&rest[..pos]);
        rest = &rest[pos..];
        let semi = rest
            .find(';')
            .ok_or_else(|| XmlError::new("unterminated entity"))?;
        match &rest[..=semi] {
            "&amp;" => out.push('&'),
            "&lt;" => out.push('<'),
            "&gt;" => out.push('>'),
            "&quot;" => out.push('"'),
            "&apos;" => out.push('\''),
            other => return Err(XmlError::new(format!("unknown entity `{other}`"))),
        }
        rest = &rest[semi + 1..];
    }
    out.push_str(rest);
    Ok(out)
}

/// XML parse error with a byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XmlError {
    msg: String,
}

impl XmlError {
    fn new(msg: impl Into<String>) -> XmlError {
        XmlError { msg: msg.into() }
    }
}

impl fmt::Display for XmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "xml parse error: {}", self.msg)
    }
}

impl std::error::Error for XmlError {}

/// Parses a document containing exactly one root element.
///
/// # Errors
///
/// [`XmlError`] on malformed input (unclosed tags, bad entities, trailing
/// content, mismatched close tags) and on elements nested deeper than 128
/// levels.
pub fn parse(input: &str) -> Result<XmlNode, XmlError> {
    let mut p = Parser {
        s: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws_and_prolog()?;
    let node = p.element(1)?;
    p.skip_ws();
    if p.pos != p.s.len() {
        return Err(XmlError::new("trailing content after root element"));
    }
    Ok(node)
}

struct Parser<'a> {
    s: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.s.get(self.pos).copied()
    }

    fn starts_with(&self, pat: &str) -> bool {
        self.s[self.pos..].starts_with(pat.as_bytes())
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn skip_ws_and_prolog(&mut self) -> Result<(), XmlError> {
        loop {
            self.skip_ws();
            if self.starts_with("<?") {
                let end = self.find("?>")?;
                self.pos = end + 2;
            } else if self.starts_with("<!--") {
                let end = self.find("-->")?;
                self.pos = end + 3;
            } else {
                return Ok(());
            }
        }
    }

    fn find(&self, pat: &str) -> Result<usize, XmlError> {
        let hay = &self.s[self.pos..];
        hay.windows(pat.len())
            .position(|w| w == pat.as_bytes())
            .map(|i| self.pos + i)
            .ok_or_else(|| XmlError::new(format!("expected `{pat}`")))
    }

    fn name(&mut self) -> Result<String, XmlError> {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || c == b'-' || c == b'_' || c == b':' || c == b'.' {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(XmlError::new("expected a name"));
        }
        Ok(String::from_utf8_lossy(&self.s[start..self.pos]).into_owned())
    }

    /// Parses the element at the cursor, the `depth`-th open one.
    fn element(&mut self, depth: usize) -> Result<XmlNode, XmlError> {
        if depth > MAX_DEPTH {
            return Err(XmlError::new(format!(
                "elements nested deeper than {MAX_DEPTH} levels"
            )));
        }
        if self.peek() != Some(b'<') {
            return Err(XmlError::new("expected `<`"));
        }
        self.pos += 1;
        let name = self.name()?;
        let mut node = XmlNode::new(&name);
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'/') => {
                    self.pos += 1;
                    if self.peek() != Some(b'>') {
                        return Err(XmlError::new("expected `>` after `/`"));
                    }
                    self.pos += 1;
                    return Ok(node);
                }
                Some(b'>') => {
                    self.pos += 1;
                    break;
                }
                Some(_) => {
                    let an = self.name()?;
                    self.skip_ws();
                    if self.peek() != Some(b'=') {
                        return Err(XmlError::new("expected `=` in attribute"));
                    }
                    self.pos += 1;
                    self.skip_ws();
                    if self.peek() != Some(b'"') {
                        return Err(XmlError::new("expected `\"` in attribute"));
                    }
                    self.pos += 1;
                    let end = self.find("\"")?;
                    let raw = String::from_utf8_lossy(&self.s[self.pos..end]).into_owned();
                    self.pos = end + 1;
                    node.attrs.push((an, unescape(&raw)?));
                }
                None => return Err(XmlError::new("unexpected end inside tag")),
            }
        }
        // Content: text and children until the matching close tag.
        loop {
            if self.starts_with("</") {
                self.pos += 2;
                let close = self.name()?;
                if close != name {
                    return Err(XmlError::new(format!(
                        "mismatched close tag: expected `{name}`, got `{close}`"
                    )));
                }
                self.skip_ws();
                if self.peek() != Some(b'>') {
                    return Err(XmlError::new("expected `>` in close tag"));
                }
                self.pos += 1;
                // Trim in place — drops surrounding whitespace without
                // reallocating the node's accumulated text.
                node.text.truncate(node.text.trim_end().len());
                let lead = node.text.len() - node.text.trim_start().len();
                node.text.drain(..lead);
                return Ok(node);
            } else if self.starts_with("<!--") {
                let end = self.find("-->")?;
                self.pos = end + 3;
            } else if self.peek() == Some(b'<') {
                node.children.push(self.element(depth + 1)?);
            } else {
                let start = self.pos;
                while let Some(c) = self.peek() {
                    if c == b'<' {
                        break;
                    }
                    self.pos += 1;
                }
                if self.pos == self.s.len() {
                    return Err(XmlError::new(format!("unclosed element `{name}`")));
                }
                let raw = String::from_utf8_lossy(&self.s[start..self.pos]).into_owned();
                node.text.push_str(&unescape(&raw)?);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_serialize() {
        let doc = XmlNode::new("log")
            .attr("source", "a.log")
            .child(XmlNode::new("entry").child(XmlNode::new("time").with_text("00:00:01")));
        let xml = doc.to_xml();
        assert!(xml.contains("<log source=\"a.log\">"));
        assert!(xml.contains("<time>00:00:01</time>"));
    }

    #[test]
    fn roundtrip_simple() {
        let doc = XmlNode::new("root")
            .attr("a", "1")
            .child(XmlNode::new("item").with_text("x < y & z"))
            .child(XmlNode::new("empty"))
            .child(XmlNode::new("quoted").attr("v", "say \"hi\""));
        let back = parse(&doc.to_xml()).unwrap();
        assert_eq!(back, doc);
    }

    #[test]
    fn parses_self_closing_and_nested() {
        let input = r#"<a><b x="1"/><c><d>text</d></c></a>"#;
        let doc = parse(input).unwrap();
        assert_eq!(doc.children.len(), 2);
        assert_eq!(doc.find("b").unwrap().get_attr("x"), Some("1"));
        assert_eq!(doc.find("c").unwrap().find("d").unwrap().text, "text");
    }

    #[test]
    fn find_all_descends() {
        let input = "<r><g><cpu n=\"1\"/></g><g><cpu n=\"2\"/></g></r>";
        let doc = parse(input).unwrap();
        let cpus = doc.find_all("cpu");
        assert_eq!(cpus.len(), 2);
        assert_eq!(cpus[1].get_attr("n"), Some("2"));
    }

    #[test]
    fn prolog_and_comments_skipped() {
        let input = "<?xml version=\"1.0\"?>\n<!-- hi -->\n<r><!-- inner -->ok</r>";
        let doc = parse(input).unwrap();
        assert_eq!(doc.text, "ok");
    }

    #[test]
    fn escape_unescape_roundtrip() {
        let nasty = "a<b>&\"c'd&amp;";
        assert_eq!(unescape(&escape(nasty)).unwrap(), nasty);
        assert!(unescape("&bogus;").is_err());
        assert!(unescape("&unterminated").is_err());
    }

    #[test]
    fn rejects_malformed() {
        assert!(parse("<a>").is_err());
        assert!(parse("<a></b>").is_err());
        assert!(parse("<a/><b/>").is_err());
        assert!(parse("plain text").is_err());
        assert!(parse("<a x=1></a>").is_err());
    }

    #[test]
    fn deep_nesting_is_an_error_not_an_abort() {
        let nested = |n: usize| "<a>".repeat(n) + &"</a>".repeat(n);
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        for n in [MAX_DEPTH + 1, 200_000] {
            let err = parse(&nested(n)).unwrap_err();
            assert!(err.to_string().contains("deeper than 128"), "{err}");
        }
    }

    #[test]
    fn text_whitespace_trimmed() {
        let doc = parse("<a>\n  hello  \n</a>").unwrap();
        assert_eq!(doc.text, "hello");
    }
}
