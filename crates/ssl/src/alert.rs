//! SSL v3 alerts — including the `close_notify` that ends the session in
//! the paper's Figure 1 ("End Session").

use crate::SslError;
use std::fmt;

/// Alert severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum AlertLevel {
    /// The connection may continue.
    Warning = 1,
    /// The connection must be torn down.
    Fatal = 2,
}

/// The alert descriptions SSL v3 defines (subset used here).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum AlertDescription {
    /// Orderly connection closure (0).
    CloseNotify = 0,
    /// A message arrived out of sequence (10).
    UnexpectedMessage = 10,
    /// Record MAC verification failed (20).
    BadRecordMac = 20,
    /// Decompression failed (30) — unused, no compression here.
    DecompressionFailure = 30,
    /// Handshake could not be completed (40).
    HandshakeFailure = 40,
    /// A certificate could not be validated (42).
    BadCertificate = 42,
    /// A field decoded to an illegal value (47).
    IllegalParameter = 47,
}

impl AlertDescription {
    fn from_u8(v: u8) -> Result<Self, SslError> {
        Ok(match v {
            0 => AlertDescription::CloseNotify,
            10 => AlertDescription::UnexpectedMessage,
            20 => AlertDescription::BadRecordMac,
            30 => AlertDescription::DecompressionFailure,
            40 => AlertDescription::HandshakeFailure,
            42 => AlertDescription::BadCertificate,
            47 => AlertDescription::IllegalParameter,
            _ => return Err(SslError::Decode("alert description")),
        })
    }
}

/// A two-byte alert message.
///
/// # Examples
///
/// ```
/// use sslperf_ssl::alert::Alert;
///
/// let close = Alert::close_notify();
/// let bytes = close.to_bytes();
/// assert_eq!(Alert::from_bytes(&bytes)?, close);
/// # Ok::<(), sslperf_ssl::SslError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Alert {
    /// Severity.
    pub level: AlertLevel,
    /// What happened.
    pub description: AlertDescription,
}

impl Alert {
    /// The warning-level `close_notify` that ends a session cleanly.
    #[must_use]
    pub fn close_notify() -> Self {
        Alert { level: AlertLevel::Warning, description: AlertDescription::CloseNotify }
    }

    /// A fatal alert with the given description.
    #[must_use]
    pub fn fatal(description: AlertDescription) -> Self {
        Alert { level: AlertLevel::Fatal, description }
    }

    /// The fatal alert to send before closing a connection that hit
    /// `error`: the one mapping from errors to alerts. Hard transport
    /// failures and the peer's own alerts get none — there is nobody left
    /// to tell. A fault on this side (a state the handshake cannot leave, a
    /// cipher that refused its input) fails the handshake; malformed input
    /// is an illegal parameter.
    #[must_use]
    pub fn for_error(error: &SslError) -> Option<Alert> {
        let description = match error {
            SslError::MacMismatch | SslError::BadPadding => AlertDescription::BadRecordMac,
            SslError::UnexpectedMessage { .. } => AlertDescription::UnexpectedMessage,
            SslError::BadFinished
            | SslError::NoCommonCipher
            | SslError::NotReady(_)
            | SslError::Cipher(_) => AlertDescription::HandshakeFailure,
            SslError::Rsa(_) => AlertDescription::BadCertificate,
            SslError::Decode(_) | SslError::UnsupportedVersion { .. } => {
                AlertDescription::IllegalParameter
            }
            SslError::Io(_) | SslError::PeerAlert(_) => return None,
        };
        Some(Alert::fatal(description))
    }

    /// Serializes to the two-byte wire form.
    #[must_use]
    pub fn to_bytes(self) -> [u8; 2] {
        [self.level as u8, self.description as u8]
    }

    /// Parses the two-byte wire form.
    ///
    /// # Errors
    ///
    /// Returns [`SslError::Decode`] for wrong length or unknown values.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SslError> {
        let [level, description] = bytes else {
            return Err(SslError::Decode("alert length"));
        };
        let level = match level {
            1 => AlertLevel::Warning,
            2 => AlertLevel::Fatal,
            _ => return Err(SslError::Decode("alert level")),
        };
        Ok(Alert { level, description: AlertDescription::from_u8(*description)? })
    }

    /// True for the orderly-closure alert.
    #[must_use]
    pub fn is_close_notify(self) -> bool {
        self.description == AlertDescription::CloseNotify
    }
}

impl fmt::Display for Alert {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?} alert: {:?}", self.level, self.description)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_descriptions() {
        for desc in [
            AlertDescription::CloseNotify,
            AlertDescription::UnexpectedMessage,
            AlertDescription::BadRecordMac,
            AlertDescription::DecompressionFailure,
            AlertDescription::HandshakeFailure,
            AlertDescription::BadCertificate,
            AlertDescription::IllegalParameter,
        ] {
            for alert in
                [Alert::fatal(desc), Alert { level: AlertLevel::Warning, description: desc }]
            {
                assert_eq!(Alert::from_bytes(&alert.to_bytes()).unwrap(), alert);
            }
        }
    }

    #[test]
    fn malformed_alerts_rejected() {
        assert!(Alert::from_bytes(&[]).is_err());
        assert!(Alert::from_bytes(&[1]).is_err());
        assert!(Alert::from_bytes(&[1, 2, 3]).is_err());
        assert!(Alert::from_bytes(&[3, 0]).is_err(), "unknown level");
        assert!(Alert::from_bytes(&[1, 99]).is_err(), "unknown description");
    }

    #[test]
    fn error_mapping() {
        assert_eq!(
            Alert::for_error(&SslError::MacMismatch).unwrap().description,
            AlertDescription::BadRecordMac
        );
        assert_eq!(
            Alert::for_error(&SslError::BadFinished).unwrap().description,
            AlertDescription::HandshakeFailure
        );
        let ticket = SslError::NotReady("announced session ticket not issued");
        let cipher = SslError::Cipher(sslperf_ciphers::CipherError::BackendUnavailable);
        for error in [SslError::NotReady("x"), ticket, cipher] {
            assert_eq!(
                Alert::for_error(&error),
                Some(Alert::fatal(AlertDescription::HandshakeFailure)),
                "{error}"
            );
        }
        assert_eq!(
            Alert::for_error(&SslError::Decode("request")),
            Some(Alert::fatal(AlertDescription::IllegalParameter))
        );
        assert_eq!(Alert::for_error(&SslError::Io("reset".into())), None);
        let peer = SslError::PeerAlert(Alert::fatal(AlertDescription::BadRecordMac));
        assert_eq!(Alert::for_error(&peer), None);
    }

    #[test]
    fn close_notify_helpers() {
        let c = Alert::close_notify();
        assert!(c.is_close_notify());
        assert_eq!(c.level, AlertLevel::Warning);
        assert!(!Alert::fatal(AlertDescription::BadRecordMac).is_close_notify());
        assert_eq!(c.to_string(), "Warning alert: CloseNotify");
    }
}
