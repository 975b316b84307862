//! Tokenization, stop-word removal and vocabulary interning.
//!
//! Appendix D.1: "we tokenized the text of microtasks and removed the
//! stopwords". The tokenizer lowercases, splits on non-alphanumeric
//! boundaries and drops a small English stop-word list; [`Vocabulary`]
//! interns tokens to dense `u32` ids so similarity metrics and the LDA
//! sampler can work with integer arrays.

use std::collections::HashMap;

/// A compact English stop-word list (function words common in microtask
/// text; matching the paper's preprocessing in spirit).
pub const STOPWORDS: &[&str] = &[
    "a", "an", "and", "are", "as", "at", "be", "but", "by", "for", "from", "had", "has", "have",
    "he", "her", "his", "i", "if", "in", "into", "is", "it", "its", "me", "my", "no", "not", "of",
    "on", "or", "our", "she", "so", "that", "the", "their", "them", "then", "there", "these",
    "they", "this", "to", "was", "we", "were", "what", "when", "which", "who", "will", "with",
    "you", "your",
];

/// Lowercasing, stop-word-removing tokenizer.
#[derive(Debug, Clone)]
pub struct Tokenizer {
    stopwords: std::collections::HashSet<&'static str>,
    keep_stopwords: bool,
}

impl Default for Tokenizer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tokenizer {
    /// Creates the standard tokenizer (stop words removed).
    pub fn new() -> Self {
        Self {
            stopwords: STOPWORDS.iter().copied().collect(),
            keep_stopwords: false,
        }
    }

    /// Creates a tokenizer that keeps stop words (useful for the short
    /// product-record tasks of Table 1 where nearly every token matters).
    pub fn keeping_stopwords() -> Self {
        Self {
            stopwords: std::collections::HashSet::new(),
            keep_stopwords: true,
        }
    }

    /// Splits `text` into lowercase tokens, dropping stop words.
    ///
    /// Tokens are maximal runs of alphanumeric characters; punctuation and
    /// whitespace are separators. Duplicates are preserved (term frequency
    /// matters for tf-idf and LDA).
    pub fn tokenize(&self, text: &str) -> Vec<String> {
        let mut out = Vec::new();
        let mut current = String::new();
        for ch in text.chars() {
            if ch.is_alphanumeric() {
                current.extend(ch.to_lowercase());
            } else if !current.is_empty() {
                self.push_token(&mut out, std::mem::take(&mut current));
            }
        }
        if !current.is_empty() {
            self.push_token(&mut out, current);
        }
        out
    }

    fn push_token(&self, out: &mut Vec<String>, token: String) {
        if self.keep_stopwords || !self.stopwords.contains(token.as_str()) {
            out.push(token);
        }
    }
}

/// Interns tokens to dense `u32` ids.
#[derive(Debug, Clone, Default)]
pub struct Vocabulary {
    by_token: HashMap<String, u32>,
}

impl Vocabulary {
    /// Creates an empty vocabulary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `token`, returning its id.
    pub fn intern(&mut self, token: &str) -> u32 {
        if let Some(&id) = self.by_token.get(token) {
            return id;
        }
        let id = u32::try_from(self.by_token.len()).expect("vocabulary overflow");
        self.by_token.insert(token.to_owned(), id);
        id
    }

    /// Looks up a token id without interning.
    pub fn get(&self, token: &str) -> Option<u32> {
        self.by_token.get(token).copied()
    }

    /// Vocabulary size.
    pub fn len(&self) -> usize {
        self.by_token.len()
    }

    /// Whether the vocabulary is empty.
    pub fn is_empty(&self) -> bool {
        self.by_token.is_empty()
    }

    /// Tokenizes and interns a whole document, returning token ids.
    pub fn encode(&mut self, tokenizer: &Tokenizer, text: &str) -> Vec<u32> {
        tokenizer
            .tokenize(text)
            .into_iter()
            .map(|t| self.intern(&t))
            .collect()
    }
}

/// Encodes a corpus of texts into token-id documents plus the vocabulary.
pub fn encode_corpus<'a>(
    tokenizer: &Tokenizer,
    texts: impl IntoIterator<Item = &'a str>,
) -> (Vec<Vec<u32>>, Vocabulary) {
    let mut vocab = Vocabulary::new();
    let docs = texts
        .into_iter()
        .map(|t| vocab.encode(tokenizer, t))
        .collect();
    (docs, vocab)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenize_lowercases_and_splits_on_punctuation() {
        let t = Tokenizer::keeping_stopwords();
        assert_eq!(
            t.tokenize("iPhone 4, WiFi/32GB black!"),
            vec!["iphone", "4", "wifi", "32gb", "black"]
        );
    }

    #[test]
    fn stopwords_are_removed_by_default() {
        let t = Tokenizer::new();
        assert_eq!(
            t.tokenize("the iPad with a Retina display"),
            vec!["ipad", "retina", "display"]
        );
    }

    #[test]
    fn keeping_stopwords_preserves_them() {
        let t = Tokenizer::keeping_stopwords();
        assert_eq!(
            t.tokenize("the iPad with Retina"),
            vec!["the", "ipad", "with", "retina"]
        );
    }

    #[test]
    fn duplicates_are_preserved() {
        let t = Tokenizer::new();
        assert_eq!(t.tokenize("ipod ipod nano"), vec!["ipod", "ipod", "nano"]);
    }

    #[test]
    fn empty_and_punctuation_only_texts() {
        let t = Tokenizer::new();
        assert!(t.tokenize("").is_empty());
        assert!(t.tokenize("?!., --").is_empty());
    }

    #[test]
    fn vocabulary_interns_stably() {
        let mut v = Vocabulary::new();
        let a = v.intern("iphone");
        let b = v.intern("ipad");
        assert_ne!(a, b);
        assert_eq!(v.intern("iphone"), a);
        assert_eq!(v.get("ipad"), Some(b));
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn encode_corpus_shares_vocabulary() {
        let t = Tokenizer::keeping_stopwords();
        let (docs, vocab) = encode_corpus(&t, ["iphone 4 wifi", "iphone case"]);
        assert_eq!(docs.len(), 2);
        assert_eq!(docs[0][0], docs[1][0], "shared token shares id");
        assert_eq!(vocab.len(), 4, "iphone, 4, wifi, case");
    }

    #[test]
    fn unicode_text_tokenizes_without_panicking() {
        let t = Tokenizer::new();
        let toks = t.tokenize("Überraschung — naïve café 数据库");
        assert!(toks.contains(&"überraschung".to_string()));
        assert!(toks.contains(&"数据库".to_string()));
    }
}
