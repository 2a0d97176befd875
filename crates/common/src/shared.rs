//! [`Shared`]: a vector in one shared, copy-on-write allocation.

use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// A `Vec<T>` behind one `Arc`, for the payloads the fabric hands to many
/// owners at once: a client batch's transactions (every message,
/// certificate and ledger block that carries the batch) and a batch's
/// execution outcomes (the reply sent and the reply remembered for
/// retransmission).
///
/// Cloning bumps a reference count instead of copying the elements. The
/// handle is copy-on-write: equality, `Debug` and serde see only the
/// content, exactly as a `Vec<T>` would, and [`Shared::make_mut`] gives a
/// private copy to whoever changes one.
pub struct Shared<T>(Arc<Vec<T>>);

impl<T> Shared<T> {
    /// True when `a` and `b` share one allocation.
    pub fn ptr_eq(a: &Shared<T>, b: &Shared<T>) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }
}

impl<T: Clone> Shared<T> {
    /// Mutable access to the elements, copying them first if any other
    /// handle shares them; the other handles are left untouched.
    pub fn make_mut(&mut self) -> &mut Vec<T> {
        Arc::make_mut(&mut self.0)
    }
}

impl<T> Clone for Shared<T> {
    fn clone(&self) -> Self {
        Shared(Arc::clone(&self.0))
    }
}

impl<T> Default for Shared<T> {
    fn default() -> Self {
        Shared::from(Vec::new())
    }
}

impl<T> std::ops::Deref for Shared<T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        &self.0
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for Shared<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.fmt(f)
    }
}

impl<T: PartialEq> PartialEq for Shared<T> {
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0
    }
}

impl<T: Eq> Eq for Shared<T> {}

impl<T: PartialEq> PartialEq<Vec<T>> for Shared<T> {
    fn eq(&self, other: &Vec<T>) -> bool {
        *self.0 == *other
    }
}

impl<T> From<Vec<T>> for Shared<T> {
    fn from(items: Vec<T>) -> Shared<T> {
        Shared(Arc::new(items))
    }
}

impl<T> FromIterator<T> for Shared<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Shared<T> {
        Shared::from(iter.into_iter().collect::<Vec<_>>())
    }
}

/// Owned iteration moves the elements out when this is the last handle
/// and clones them otherwise.
impl<T: Clone> IntoIterator for Shared<T> {
    type Item = T;
    type IntoIter = std::vec::IntoIter<T>;
    fn into_iter(self) -> Self::IntoIter {
        Arc::unwrap_or_clone(self.0).into_iter()
    }
}

impl<'a, T> IntoIterator for &'a Shared<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

/// The `Vec<T>` form, through serde's `Arc` impls: a deserialized value
/// gets an allocation of its own.
impl<T: Serialize> Serialize for Shared<T> {
    fn to_value(&self) -> serde::value::Value {
        self.0.to_value()
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Shared<T> {
    fn from_value(v: &serde::value::Value) -> Result<Self, serde::value::DeError> {
        Arc::<Vec<T>>::from_value(v).map(Shared)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_and_make_mut_unshares() {
        let a = Shared::from(vec![1u32, 2, 3]);
        let mut b = a.clone();
        assert!(Shared::ptr_eq(&a, &b));
        b.make_mut()[0] = 9;
        assert!(!Shared::ptr_eq(&a, &b));
        assert_eq!(a, vec![1, 2, 3]);
        assert_eq!(b, vec![9, 2, 3]);
        assert_eq!(format!("{a:?}"), "[1, 2, 3]");
    }

    #[test]
    fn serde_form_is_the_vec_form() {
        let v = vec![4u64, 5];
        let shared = Shared::from(v.clone());
        assert_eq!(shared.to_value(), v.to_value());
        let back = Shared::<u64>::from_value(&v.to_value()).unwrap();
        assert_eq!(back, shared);
        assert!(!Shared::ptr_eq(&back, &shared));
    }
}
