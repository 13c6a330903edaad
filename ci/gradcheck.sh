#!/usr/bin/env bash
spdalign gradcheck --instances 2
