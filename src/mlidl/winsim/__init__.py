"""Headless, deterministic Win32 user/gdi simulation."""
